"""Finite truncation of the faithful representation on l2(N) (x) l2(Z).

The generators act through

    a  ->  S sqrt(1 - Q^2) (x) 1        b  ->  Q (x) R

with Q e_k = q^k e_k, S the downward Fock shift (S e_0 = 0) and R the
bilateral shift e_m -> e_{m+1}.  We compress to the window
fock in [0, N_F), z in [-N_Z, N_Z] with *hard* truncation: transitions
leaving the window are zeroed (no cyclic wrap), so operator identities hold
exactly on interior vectors (those at least a margin away from the window's
edges, `interior_indices`) and every edge defect is quantified rather than
hidden.

Each generator is a weighted shift on the (fock, z) grid, and so is every
word: a word of charges (c1, c2) sends e_(k, z) to w(k, z) e_(k - c1, z + c2).
Its weight grid w is built letter by letter in O(length * dim) from two
vectors cached per window and q, sqrt(1 - q^(2k)) for a and q^k for b.
That one action serves every caller.  A word acts on a column block, viewed
as (fock, z, column), by one shifted and scaled slice copy, in
O(dim * columns) rather than the O(dim^2 * columns) of a dense product.
`represent` scatters the same grids into a dense matrix; its weights
multiply in the order of the dense product 1 @ M_1 @ ... @ M_n, so its
entries are bitwise those of that product.

A relation or normal-form residual is single-sector: each column maps to at
most one row.  Its norm is reported by `norm_bound` as
sqrt(max column |.|-sum * max row |.|-sum), which is exact for such a
weighted partial permutation and an upper bound on the 2-norm of any other
matrix, so a residual check can only get stricter.  The residuals are taken
straight from the weight grids: the terms are grouped by displacement, the
grids of a group summed, and the |.|-sums read over the interior sources, in
O(terms * dim) time and memory; no column block is formed.

Basis order is row-major (fock, z): index = fock * (2 N_Z + 1) + (z + N_Z).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR,
    NCPolynomial, QParam, Word, normalize,
)

__all__ = [
    "TruncationSpec", "build_generators", "represent", "interior_indices",
    "operator_norm", "norm_bound", "relation_residuals", "normal_form_residual",
    "apply_word_to_columns", "apply_poly_to_columns", "save_matrix", "load_matrix",
    "RELATION_NAMES",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Window sizes: fock_dim Fock levels, z in [-z_band, z_band], interior margin."""

    fock_dim: int
    z_band: int
    margin: int = 0

    def __post_init__(self):
        if self.fock_dim < 4:
            raise ValueError("fock_dim must be >= 4")
        if self.z_band < 2:
            raise ValueError("z_band must be >= 2")
        if not 0 <= self.margin < min(self.fock_dim, self.z_band):
            raise ValueError("margin must satisfy 0 <= margin < min(fock_dim, z_band)")

    @property
    def z_count(self) -> int:
        return 2 * self.z_band + 1

    @property
    def dim(self) -> int:
        return self.fock_dim * self.z_count

    def index(self, fock: int, z: int) -> int:
        return fock * self.z_count + (z + self.z_band)


@lru_cache(maxsize=64)
def _weights(t: TruncationSpec, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights over the Fock levels: sqrt(1 - q^(2k)) for a, q^k for b."""
    wa = np.array([np.sqrt(1.0 - q ** (2 * k)) for k in range(t.fock_dim)])
    wb = np.array([q ** k for k in range(t.fock_dim)])
    wa.setflags(write=False)
    wb.setflags(write=False)
    return wa, wb


def _span(n: int, d: int) -> tuple[slice, slice]:
    """Source and target slices of a shift by d along an axis of length n."""
    lo, hi = max(0, -d), min(n, n - d)
    if hi <= lo:
        return slice(0, 0), slice(0, 0)
    return slice(lo, hi), slice(lo + d, hi + d)


def _shift_slices(t: TruncationSpec, d_fock: int, d_z: int):
    """(source, target) index pairs on the (fock, z) grid of a displacement."""
    (fs, ft), (zs, zt) = _span(t.fock_dim, d_fock), _span(t.z_count, d_z)
    return (fs, zs), (ft, zt)


def _word_shift(letters, t: TruncationSpec, qp: QParam) -> tuple[int, int, np.ndarray]:
    """A word as one weighted shift: e_(k, z) -> grid[k, z] e_(k + d_fock, z + d_z).

    The grid is built letter by letter from the left, each step a shifted
    and scaled copy of the previous grid, so its weights multiply in the
    order of the dense product 1 @ M_1 @ ... @ M_n.  A zero marks a source
    whose path leaves the window (hard truncation).
    """
    wa, wb = _weights(t, qp.q)
    # (fock step, z step, weight by source Fock level); a* e_k = wa[k+1] e_(k+1)
    steps = {
        ALPHA: (-1, 0, wa),
        ALPHA_STAR: (1, 0, np.append(wa[1:], 0.0)),
        BETA: (0, 1, wb),
        BETA_STAR: (0, -1, wb),
    }
    grid = np.ones((t.fock_dim, t.z_count))
    d_fock = d_z = 0
    for letter in letters:
        sf, sz, w = steps[letter]
        src, tgt = _shift_slices(t, sf, sz)
        nxt = np.zeros_like(grid)
        nxt[src] = grid[tgt] * w[src[0], None]
        grid = nxt
        d_fock += sf
        d_z += sz
    return d_fock, d_z, grid


def apply_word_to_columns(letters, t: TruncationSpec, qp: QParam, cols: np.ndarray) -> np.ndarray:
    """Image of the column block under the word: one shifted, scaled slice copy."""
    d_fock, d_z, grid = _word_shift(letters, t, qp)
    src, tgt = _shift_slices(t, d_fock, d_z)
    block = cols.reshape(t.fock_dim, t.z_count, -1)
    out = np.zeros(block.shape, dtype=complex)
    out[tgt] = grid[src][..., None] * block[src]
    return out.reshape(cols.shape)


def apply_poly_to_columns(x: NCPolynomial, t: TruncationSpec, cols: np.ndarray) -> np.ndarray:
    """Image of the column block under the element: its words' images summed."""
    acc = np.zeros(cols.shape, dtype=complex)
    for mon, c in x.terms.items():
        acc += c * apply_word_to_columns(mon.letters(), t, x.qp, cols)
    return acc


def build_generators(t: TruncationSpec, qp: QParam):
    """Return (alpha matrix, beta matrix) for the truncation window."""
    eye = np.eye(t.dim, dtype=complex)
    return (apply_word_to_columns((ALPHA,), t, qp, eye),
            apply_word_to_columns((BETA,), t, qp, eye))


def represent(x: NCPolynomial, t: TruncationSpec, qp: QParam | None = None) -> np.ndarray:
    """Dense matrix of an element, bitwise equal to the sum over its monomials
    of c * (1 @ M_1 @ ... @ M_n) in the generator matrices M."""
    qp = qp or x.qp
    out = np.zeros((t.dim, t.dim), dtype=complex)
    index = np.arange(t.dim).reshape(t.fock_dim, t.z_count)
    for mon, c in x.terms.items():
        d_fock, d_z, grid = _word_shift(mon.letters(), t, qp)
        src, tgt = _shift_slices(t, d_fock, d_z)
        # complex weights, so c * w is the complex product the dense c * acc forms
        out[index[tgt], index[src]] += c * grid[src].astype(complex)
    return out


def _interior_mask(t: TruncationSpec, margin: int | None = None) -> np.ndarray:
    """(fock, z) grid marking the sources at least ``margin`` steps from every window edge."""
    mu = t.margin if margin is None else margin
    if not 0 <= mu <= min(t.fock_dim - 1, t.z_band):
        raise ValueError(f"margin {mu} leaves no interior window")
    mask = np.zeros((t.fock_dim, t.z_count), dtype=bool)
    mask[:t.fock_dim - mu, mu:t.z_count - mu] = True
    return mask


def interior_indices(t: TruncationSpec, margin: int | None = None) -> np.ndarray:
    """Indices of basis vectors at least ``margin`` steps away from every window edge."""
    return np.flatnonzero(_interior_mask(t, margin))


def operator_norm(a: np.ndarray) -> float:
    """2-norm: the largest singular value."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def norm_bound(a: np.ndarray) -> float:
    """sqrt(max column |.|-sum * max row |.|-sum), at least the 2-norm.

    Equal to the 2-norm, max |entry|, when every column and every row holds
    at most one nonzero (a weighted partial permutation), as a single-sector
    residual does.
    """
    if a.size == 0:
        return 0.0
    mag = np.abs(a)
    return math.sqrt(float(mag.sum(axis=0).max()) * float(mag.sum(axis=1).max()))


# The defining relations, in this order.
RELATION_NAMES = (
    "a*a + b*b - 1",
    "aa* + q^2 bb* - 1",
    "ab - q ba",
    "ab* - q b*a",
    "b*b - bb*",
)


def _relation_terms(q: float) -> dict[str, tuple]:
    """Each relation as (coefficient, letters) pairs; all terms share one sector."""
    a, a_, b, b_ = ALPHA, ALPHA_STAR, BETA, BETA_STAR
    return {
        RELATION_NAMES[0]: ((1.0, (a_, a)), (1.0, (b_, b)), (-1.0, ())),
        RELATION_NAMES[1]: ((1.0, (a, a_)), (q * q, (b, b_)), (-1.0, ())),
        RELATION_NAMES[2]: ((1.0, (a, b)), (-q, (b, a))),
        RELATION_NAMES[3]: ((1.0, (a, b_)), (-q, (b_, a))),
        RELATION_NAMES[4]: ((1.0, (b_, b)), (-1.0, (b, b_))),
    }


def _residual_bound(terms, t: TruncationSpec, qp: QParam, margin: int) -> float:
    """`norm_bound` of sum c * word over (c, letters) pairs, restricted to the
    interior window (rows and columns), taken from the weight grids.

    The terms are grouped by displacement and their grids summed.  Each
    group is a weighted shift, so a column |.|-sum is a sum over groups of
    the grid moduli at that source, and a row |.|-sum the same at the
    shifted source; no column block is formed.  A sound single-sector
    residual is one group, and the bound is then its largest entry.
    """
    groups: dict[tuple[int, int], np.ndarray] = {}
    for c, letters in terms:
        d_fock, d_z, grid = _word_shift(letters, t, qp)
        key = (d_fock, d_z)
        groups[key] = groups[key] + c * grid if key in groups else c * grid
    inner = _interior_mask(t, margin)
    col_sums = np.zeros(inner.shape)
    row_sums = np.zeros(inner.shape)
    for (d_fock, d_z), grid in groups.items():
        src, tgt = _shift_slices(t, d_fock, d_z)
        mag = np.abs(grid[src]) * (inner[src] & inner[tgt])
        col_sums[src] += mag
        row_sums[tgt] += mag
    return math.sqrt(float(col_sums.max()) * float(row_sums.max()))


def relation_residuals(t: TruncationSpec, qp: QParam) -> dict[str, float]:
    """Interior norm residual of each defining relation (see `norm_bound`).

    Every relation has total degree 2, so the interior margin is the stored
    margin plus 2.  On the infinite space all five vanish identically; here
    the interior residuals are float-roundoff small while the unprojected
    edge defect is order one (see `edge_defect`).
    """
    if t.margin < 1:
        raise ValueError("relation residuals need margin >= 1")
    return {name: _residual_bound(terms, t, qp, t.margin + 2)
            for name, terms in _relation_terms(qp.q).items()}


def edge_defect(t: TruncationSpec, qp: QParam) -> float:
    """Unprojected norm of aa* + q^2 bb* - 1: the top-Fock-edge defect.

    Documents why interior restriction exists; the value is at least
    1 - q^(2 fock_dim) because the compressed shift loses the outgoing
    component at the last Fock level.
    """
    return _residual_bound(_relation_terms(qp.q)[RELATION_NAMES[1]], t, qp, 0)


def normal_form_residual(word: Word, t: TruncationSpec, qp: QParam) -> float:
    """Interior residual between a word's matrix and its normal form's matrix.

    The margin equals the word length (capped at the window's largest legal
    margin), so all index paths stay inside the window and the residual is
    pure float noise when `normalize`'s product is sound.  Words longer than
    min(fock_dim - 1, z_band) can graze the edges and are not guaranteed a
    tiny residual.  A sound normal form shares the word's sector, so the
    residual is a weighted partial permutation and `norm_bound` is its norm;
    a normal-form term in another sector is a second displacement and shows
    at its full size.
    """
    nf = normalize(word, qp)
    mu = min(len(word.letters), min(t.fock_dim - 1, t.z_band))
    terms = [(word.coefficient, word.letters)]
    terms += [(-c, mon.letters()) for mon, c in nf.terms.items()]
    return _residual_bound(terms, t, qp, mu)


# ---------------------------------------------------------------------------
# Matrix dump formats: JSON, or binary little-endian complex128 with a
# 16-byte header (dim as u32, 12 reserved zero bytes), row-major.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<I12x")


def save_matrix(mat: np.ndarray, path: str, fmt: str = "json") -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("only square matrices are dumped")
    dim = mat.shape[0]
    if fmt == "json":
        data = {
            "dim": dim,
            "re": np.asarray(mat.real, dtype=float).ravel().tolist(),
            "im": np.asarray(mat.imag, dtype=float).ravel().tolist(),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
    elif fmt == "bin":
        arr = np.ascontiguousarray(mat, dtype="<c16")
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(dim))
            fh.write(arr.tobytes())
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def load_matrix(path: str, fmt: str = "json") -> np.ndarray:
    if fmt == "json":
        with open(path) as fh:
            data = json.load(fh)
        dim = int(data["dim"])
        re = np.array(data["re"], dtype=float).reshape(dim, dim)
        im = np.array(data["im"], dtype=float).reshape(dim, dim)
        return re + 1j * im
    if fmt == "bin":
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            (dim,) = _HEADER.unpack(header)
            body = fh.read()
        arr = np.frombuffer(body, dtype="<c16", count=dim * dim)
        return arr.reshape(dim, dim).astype(complex)
    raise ValueError(f"unknown matrix format {fmt!r}")
