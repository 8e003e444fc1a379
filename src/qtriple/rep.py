"""Finite truncation of the faithful representation on l2(N) (x) l2(Z).

The generators act through

    a  ->  S sqrt(1 - Q^2) (x) 1        b  ->  Q (x) R

with Q e_k = q^k e_k, S the downward Fock shift (S e_0 = 0) and R the
bilateral shift e_m -> e_{m+1}.  We compress to the window
fock in [0, N_F), z in [-N_Z, N_Z] with *hard* truncation: transitions
leaving the window are zeroed (no cyclic wrap), so operator identities hold
exactly on interior vectors (those at least a margin away from the window's
edges) and every edge defect is quantified rather than hidden.

Every word is a weighted shift, e_(k, z) -> w(k, z) e_(k - c1, z + c2) for
its charges (c1, c2), with separable weights w(k, z) = f(k) 1[z in I]: f is
the product of the letters' Fock weights along the path, sqrt(1 - q^(2k))
for a and q^k for b, and I the interval of sources whose path stays in the
z window.  `_word_shifts` builds them for a batch of words, multiplying in
the order of the dense product 1 @ M_1 @ ... @ M_n, so `represent` scatters
them into bitwise that product.  A word acts on a column block, viewed as
(fock, z, column), by one shifted and scaled slice copy.

A relation or normal-form residual is single-sector: each column maps to at
most one row.  Its norm is reported as the bound
sqrt(max column |.|-sum * max row |.|-sum), which is exact for such a
weighted partial permutation and an upper bound on the 2-norm of any other
matrix, so a residual check can only get stricter.  The |.|-sums are read
from f and I, a batch of residuals at once, at one z per piece on which
every interval is constant; no fock x z array is formed.

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
    NCPolynomial, QParam, normalize,
)

__all__ = [
    "TruncationSpec", "represent",
    "operator_norm", "relation_residuals", "normal_form_residual",
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
    """Weights over the Fock levels: sqrt(1 - q^(2k)) for a, k = 0 .. fock_dim,
    the last one zero (a* leaving the window, hard truncation); q^k for b."""
    wa = np.array([np.sqrt(1.0 - q ** (2 * k)) for k in range(t.fock_dim)] + [0.0])
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


# (Fock step, z step) of each letter code; code 4 pads the short words of a batch
_STEPS = np.array([(-1, 0), (1, 0), (0, 1), (0, -1), (0, 0)])


def _word_shifts(words, t: TruncationSpec, qp: QParam):
    """Words as weighted shifts, (d_fock, d_z, f, lo, hi) with one entry per
    word: word i sends e_(k, z) to f[i, k] e_(k + d_fock[i], z + d_z[i]) when
    the z index z + z_band lies in [lo[i], hi[i]), and to 0 otherwise.

    A path leaving the Fock window meets a zero weight (a at level 0, a* at
    the top level), so whatever its letters read beyond the window (the next
    row of the flat table, or its clipped ends) is multiplied by zero.
    """
    wa, wb = _weights(t, qp.q)
    n = t.fock_dim
    table = np.concatenate([wa[:-1], wa[1:], wb, wb, np.ones(n)])
    codes = np.full((len(words), max(map(len, words), default=0)), 4)
    for i, letters in enumerate(words):
        codes[i, :len(letters)] = letters
    fock_steps, z_steps = _STEPS[codes].transpose(2, 0, 1)
    # each letter's row of the table, at the level it acts at relative to the
    # source: the Fock steps of the letters right of it
    at = codes * n + np.cumsum(fock_steps[:, ::-1], axis=1)[:, ::-1] - fock_steps
    f = np.ones((len(words), n))
    for j in range(codes.shape[1]):
        f *= table.take(at[:, j, None] + np.arange(n), mode="clip")
    z_path = np.cumsum(z_steps[:, ::-1], axis=1)
    lo = -z_path.min(axis=1, initial=0)
    hi = np.maximum(lo, t.z_count - z_path.max(axis=1, initial=0))
    return fock_steps.sum(axis=1), z_steps.sum(axis=1), f, lo, hi


def _apply_words(terms, t: TruncationSpec, qp: QParam, cols: np.ndarray) -> np.ndarray:
    """Image of the column block under sum c * word over (c, letters) terms:
    one shifted, scaled slice copy per word."""
    block = cols.reshape(t.fock_dim, t.z_count, -1)
    acc = np.zeros(block.shape, dtype=complex)
    shifts = _word_shifts([letters for _, letters in terms], t, qp)
    for (c, _), d_fock, d_z, f, lo, hi in zip(terms, *shifts):
        fs, ft = _span(t.fock_dim, d_fock)
        acc[ft, lo + d_z:hi + d_z] += c * (f[fs, None, None] * block[fs, lo:hi])
    return acc.reshape(cols.shape)


def apply_word_to_columns(letters, t: TruncationSpec, qp: QParam, cols: np.ndarray) -> np.ndarray:
    """Image of the column block under the word: one shifted, scaled slice copy."""
    return _apply_words([(1.0, letters)], t, qp, cols)


def apply_poly_to_columns(x: NCPolynomial, t: TruncationSpec, cols: np.ndarray) -> np.ndarray:
    """Image of the column block under the element: its words' images summed."""
    return _apply_words([(c, mon.letters()) for mon, c in x.terms.items()], t, x.qp, cols)


def represent(x: NCPolynomial, t: TruncationSpec) -> np.ndarray:
    """Dense matrix of an element, bitwise equal to the sum over its monomials
    of c * (1 @ M_1 @ ... @ M_n) in the generator matrices M."""
    out = np.zeros((t.dim, t.dim), dtype=complex)
    index = np.arange(t.dim).reshape(t.fock_dim, t.z_count)
    shifts = _word_shifts([mon.letters() for mon in x.terms], t, x.qp)
    for c, d_fock, d_z, f, lo, hi in zip(x.terms.values(), *shifts):
        fs, ft = _span(t.fock_dim, d_fock)
        # complex weights, so c * w is the complex product the dense c * acc forms
        out[index[ft, lo + d_z:hi + d_z], index[fs, lo:hi]] += c * f[fs, None].astype(complex)
    return out


def operator_norm(a: np.ndarray) -> float:
    """2-norm: the largest singular value."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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


def _residual_bounds(residuals, t: TruncationSpec, qp: QParam) -> list[float]:
    """The norm bound (module docstring) of each (terms, margin) residual,
    the sum c * word over its (c, letters) terms with rows and columns in
    the interior window at its margin.  The terms are grouped by
    displacement, and a group's weight at (k, z) sums c f(k) over its terms
    whose z interval holds z; a column |.|-sum adds the groups' moduli at a
    source, a row |.|-sum at a target.
    Along z both change only at interval ends, so they are read at one z per
    piece: no fock x z array is formed.  A sound residual is one group.
    """
    if not residuals:
        return []
    margins = np.array([mu for _, mu in residuals])
    if margins.max() > min(t.fock_dim - 1, t.z_band):
        raise ValueError(f"margin {margins.max()} leaves no interior window")
    owner = np.array([r for r, (terms, _) in enumerate(residuals) for _ in terms])
    d_fock, d_z, f, lo, hi = _word_shifts([w for terms, _ in residuals for _, w in terms], t, qp)
    weight = np.array([c for terms, _ in residuals for c, _ in terms], dtype=complex)[:, None] * f
    # groups, and the terms of each group, in order of appearance, as the sums run
    group_of: dict[tuple[int, int, int], int] = {}
    group = np.array([group_of.setdefault(key, len(group_of))
                      for key in zip(owner.tolist(), d_fock.tolist(), d_z.tolist())])
    order = np.argsort(group, kind="stable")
    start, size = np.searchsorted(group[order], np.arange(len(group_of))), np.bincount(group)
    g_res = np.array([r for r, _, _ in group_of])
    first, width = np.searchsorted(g_res, np.arange(len(residuals))), np.bincount(g_res).max()
    # keep the interior sources whose targets are interior too
    n_f, n_z, mu = t.fock_dim, t.z_count, margins[owner]
    k = np.arange(n_f)
    weight[(k < -d_fock[:, None]) | (k >= (n_f - mu - np.maximum(0, d_fock))[:, None])] = 0.0
    lo = np.maximum(lo, mu + np.maximum(0, -d_z))
    hi = np.minimum(hi, n_z - mu - np.maximum(0, d_z))

    def largest_sums(lo, hi, weight):
        """Each residual's largest sum over its groups of |the group's weight|."""
        # where each residual's pieces start: its interval ends, clipped into [0, n_z]
        keys = np.sort(np.tile(owner, 2) * (n_z + 1) + np.clip(np.concatenate([lo, hi]), 0, n_z))
        c_res, c_z = np.divmod(keys[np.append(True, np.diff(keys) > 0)], n_z + 1)
        sums = np.zeros((len(c_res), n_f))
        # the j-th group of each piece's residual, in turn, while it has one
        for g in np.minimum(first[c_res] + np.arange(width)[:, None], len(g_res) - 1):
            acc = np.zeros((len(c_res), n_f), dtype=complex)
            for s in range(size.max()):
                i = order[np.minimum(start[g] + s, len(order) - 1)]
                on = (s < size[g]) & (lo[i] <= c_z) & (c_z < hi[i])
                acc[on] += weight[i[on]]
            real = g_res[g] == c_res
            sums[real] += np.abs(acc[real])
        starts = np.searchsorted(c_res, np.arange(len(residuals)))
        return np.maximum.reduceat(sums.max(axis=1), starts)

    cols = largest_sums(lo, hi, weight)
    source = k - d_fock[:, None]
    weight = np.where((source >= 0) & (source < n_f),
                      np.take_along_axis(weight, np.clip(source, 0, n_f - 1), axis=1), 0.0)
    rows = largest_sums(lo + d_z, hi + d_z, weight)  # the weights moved to their targets
    return [math.sqrt(float(c) * float(r)) for c, r in zip(cols, rows)]


def relation_residuals(t: TruncationSpec, qp: QParam) -> dict[str, float]:
    """Interior norm residual of each defining relation, as the norm bound of
    the module docstring.

    Every relation has total degree 2, so the interior margin is the stored
    margin plus 2.  On the infinite space all five vanish identically; here
    the interior residuals are float-roundoff small while the unprojected
    edge defect is order one (see `edge_defect`).
    """
    if t.margin < 1:
        raise ValueError("relation residuals need margin >= 1")
    terms = _relation_terms(qp.q).values()
    return dict(zip(RELATION_NAMES, _residual_bounds([(ts, t.margin + 2) for ts in terms], t, qp)))


def edge_defect(t: TruncationSpec, qp: QParam) -> float:
    """Unprojected norm of aa* + q^2 bb* - 1: the top-Fock-edge defect.

    Documents why interior restriction exists; the value is at least
    1 - q^(2 fock_dim) because the compressed shift loses the outgoing
    component at the last Fock level.
    """
    return _residual_bounds([(_relation_terms(qp.q)[RELATION_NAMES[1]], 0)], t, qp)[0]


def normal_form_residual(words, t: TruncationSpec, qp: QParam, forms=None) -> list[float]:
    """Interior residual between each word's matrix and its normal form's matrix.

    The margin equals the word length (capped at the window's largest legal
    margin), so all index paths stay inside the window and the residual is
    float noise when `normalize`'s product is sound; a longer word can graze
    the edges.  A sound normal form shares the word's sector, so the residual
    is a weighted partial permutation and the norm bound is its norm; a term of
    the normal form in another sector is a second displacement, at full size.
    ``forms``, when given, are the words' normal forms, already computed.
    """
    if forms is None:
        forms = [normalize(word, qp) for word in words]
    residuals = []
    for word, form in zip(words, forms, strict=True):
        terms = [(word.coefficient, word.letters)]
        terms += [(-c, mon.letters()) for mon, c in form.terms.items()]
        residuals.append((terms, min(len(word.letters), t.fock_dim - 1, t.z_band)))
    return _residual_bounds(residuals, t, qp)


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
