"""The equivariant Dirac operator, its sign-flip covering, and the restriction.

The diagonal operator D e^(l)_{jk} = d(l, j) e^(l)_{jk} with

    d(l, j) = 2l + 1   for j != l,      d(l, l) = -(2l + 1)

carries the bounded-commutator geometry over the full GNS space.  The
sign-flip g acts on basis vectors with eigenvalue (-1)^(2l); its fixed
subspace is the integer-l span, and restricting D there yields the geometry
of the even (quantum SO(3)) subalgebra: only odd eigenvalues
+-(2l + 1), l integer, survive.  This module certifies the covering
structure (finite generation over the even subalgebra), the equivariance
identities, and produces spectrum tables and commutator-norm evidence.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR,
    CanonicalMonomial, NCPolynomial, QParam,
    adjoint, module_decompose, monomials_up_to, mul, random_polynomial,
    z2_act, z2_project,
)
from .gns import (
    GNSBasis, HalfInt, _require_deformed, _sector_base_monomial, action_weights, gns_inner,
    gram_schmidt_basis, halfint,
)
from .report import CheckResult

__all__ = [
    "DiracSpec", "CoveringCert", "check_parity",
    "pi_matrix", "commutator_matrix", "commutator_norm_scan",
    "summability_scan", "hilbert_module_product", "certify_covering",
    "assemble_unoriented_triple", "spectrum_rows", "dirac_labels",
]


@dataclass(frozen=True)
class DiracSpec:
    """Eigenvalue data d(l, j) of the equivariant Dirac operator."""

    lmax: HalfInt

    def d(self, l, j) -> int:
        l2, j2 = halfint(l).twice, halfint(j).twice
        return -(l2 + 1) if j2 == l2 else l2 + 1

    def diagonal(self, labels: np.ndarray) -> np.ndarray:
        """d(l, j) for each row (l2, j2, k2) of an integer label array."""
        l2, j2 = labels[:, 0], labels[:, 1]
        return np.where(j2 == l2, -(l2 + 1), l2 + 1)


def dirac_labels(lmax2: int) -> list[tuple[int, int, int]]:
    """All (l2, j2, k2) with l <= lmax, sorted; (l2+1)^2 of them per l2."""
    return [(l2, j2, k2) for l2 in range(lmax2 + 1)
            for j2 in range(-l2, l2 + 1, 2) for k2 in range(-l2, l2 + 1, 2)]


def _sector_signs(qp: QParam, sectors) -> np.ndarray:
    """g on each charge sector (c1, c2): the coefficient that `z2_act` gives
    the sector's base monomial.  The sector's other monomials are that one
    times a polynomial in x = b b*, which g fixes, so g scales its node
    vectors by this sign."""
    bases = [_sector_base_monomial(c1, c2, 0) for c1, c2 in sectors]
    flipped = z2_act(NCPolynomial(qp, dict.fromkeys(bases, 1.0)))
    return np.array([flipped.coeff(m).real for m in bases])


def check_parity(basis: GNSBasis, tol: float = 0.0) -> list[CheckResult]:
    """Assert g e^(l)_{jk} = (-1)^(2l) e^(l)_{jk} on the node array, per label.

    g scales each sector's node vectors by its `_sector_signs` entry.  The
    defect is max |g e - (-1)^(2l) e| over the entry's nodes, and passes at
    most ``tol``.
    """
    sign = _sector_signs(basis.qp, basis.sectors)[basis.label_sector]
    expected = np.where(basis.label_array[:, 0] % 2, -1.0, 1.0)
    size = np.abs(basis.vectors).max(axis=2)[basis.label_depth, basis.label_sector]
    return [CheckResult(f"parity l2={l2} j2={j2} k2={k2}", defect <= tol,
                        f"(-1)^(2l) = {1 if l2 % 2 == 0 else -1}", tol, defect)
            for (l2, j2, k2), defect in zip(basis.labels(),
                                            (np.abs(sign - expected) * size).tolist())]


def _label_count(l2):
    """How many labels have a smaller l2: the sum of (m + 1)^2 over m < l2."""
    return l2 * (l2 + 1) * (2 * l2 + 1) // 6


def _position(l2, j2, k2):
    """The place of label (l2, j2, k2) in `dirac_labels` order."""
    return _label_count(l2) + (j2 + l2) // 2 * (l2 + 1) + (k2 + l2) // 2


def _generator_entries(gen: int, up: bool, labels: np.ndarray, f: np.ndarray,
                       power: np.ndarray) -> np.ndarray:
    """pi(a) (``gen`` ALPHA) or pi(b) (BETA) from each column (l2, j2, k2) of
    ``labels`` one level up or down: a q-power (table ``power``) times the
    square root of a ratio of f(m) = 1 - q^(2m) (table ``f``), exact to a few
    ulps.  pi(b) is pi(a) with k reflected, but for its q-power and sign:
    pi(a) is negative up where c1 = -(j + k) < 0 and down where c1 >= 0."""
    l2, j2, k2 = labels
    k2 = k2 if gen == ALPHA else -k2
    lj, lk, mj, mk = (l2 + j2) // 2, (l2 + k2) // 2, (l2 - j2) // 2, (l2 - k2) // 2
    root = np.sqrt(f[mj + 1] * f[mk + 1] / (f[l2 + 1] * f[l2 + 2]) if up
                   else f[lj] * f[lk] / (f[l2] * f[l2 + 1]))
    if gen == BETA:
        return power[lj if up else mk] * root
    return np.where((j2 + k2 > 0) == up, -1.0, 1.0) * (power[lj + lk + 1] if up else 1.0) * root


@lru_cache(maxsize=8)
def _ladders(lmax2: int, q: float) -> dict:
    """Per letter, its two steps over the labels of `dirac_labels(lmax2)`:
    per label, the target position (-1 where the step leaves the labels) and
    the entry.  a and b step (l2, j2, k2) by (+-1, -1, -1) and (+-1, -1, +1);
    a* and b*, their transposes, take those steps backwards.  Read-only."""
    labels = np.array(dirac_labels(lmax2)).T
    n = labels.shape[1]
    f = np.array([-math.expm1(2 * m * math.log(q)) for m in range(lmax2 + 3)])
    power = np.array([q ** m for m in range(2 * lmax2 + 2)])
    out = {ALPHA: [], ALPHA_STAR: [], BETA: [], BETA_STAR: []}
    for gen, star, dk in ((ALPHA, ALPHA_STAR, -1), (BETA, BETA_STAR, 1)):
        for up in (True, False):
            target = labels + np.array([[1 if up else -1], [-1], [dk]])
            src = np.flatnonzero((target[0] <= lmax2) & (np.abs(target[1:]) <= target[0]).all(0))
            (pos, back), (val, back_val) = np.full((2, n), -1), np.zeros((2, n))
            pos[src] = _position(*target[:, src])
            val[src] = _generator_entries(gen, up, labels[:, src], f, power)
            back[pos[src]], back_val[pos[src]] = src, val[src]
            for arr in (pos, val, back, back_val):
                arr.setflags(write=False)
            out[gen].append((pos, val))
            out[star].append((back, back_val))
    return out


def _pi_entries(a: NCPolynomial, qp: QParam, lmax2: int, width: int):
    """pi(a) on the rows l2 <= lmax2 and the first ``width`` labels as columns
    (`dirac_labels` order): (row, column) positions in row-major order, and
    values.  Each term's letters act right to left through `_ladders` on the
    labels up to lmax2 + deg(a), which no path back to l2 <= lmax2 leaves,
    so the compression is exact; an entry's bits do not depend on ``lmax2``
    or ``width``.  A ``qp`` at another q than a's raises ValueError."""
    if qp != a.qp:
        raise ValueError("mixed deformation parameters")
    _require_deformed(qp)
    ladders = _ladders(lmax2 + max(a.degree(), 0), qp.q)
    parts = [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0, complex),)]
    for mon, coeff in a.terms.items():
        row, col, val = np.arange(width), np.arange(width), np.full(width, coeff, dtype=complex)
        for letter in reversed(mon.letters()):
            target = np.concatenate([pos[row] for pos, _ in ladders[letter]])
            value = np.concatenate([val * step[row] for _, step in ladders[letter]])
            live = target >= 0
            row, col, val = target[live], np.tile(col, 2)[live], value[live]
        keep = row < _label_count(lmax2 + 1)
        parts.append((row[keep], col[keep], val[keep]))
    row, col, val = map(np.concatenate, zip(*parts))
    key = row * width + col
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    return row[order][first], col[order][first], np.add.reduceat(val[order], first)


def pi_matrix(a: NCPolynomial, basis: GNSBasis) -> np.ndarray:
    """Matrix of left multiplication by ``a`` in the orthonormal basis.

    Entry (r, c) is <e_r, a e_c>, rows and columns in the order of
    ``basis.labels()``: the dense view of `_pi_entries`, which reads only
    the basis's cutoff and q (another q than a's raises ValueError).
    """
    n = _label_count(basis.lmax2 + 1)
    r, c, v = _pi_entries(a, basis.qp, basis.lmax2, n)
    mat = np.zeros((n, n), dtype=complex)
    mat[r, c] = v
    return mat


def _guard_cut(lmax2: int, degree: int) -> int:
    """Largest column l2 whose image under a degree-``degree`` element stays below lmax2."""
    if lmax2 < 2 * degree:
        raise ValueError(f"degree {degree} leaves no guarded columns below lmax2={lmax2}")
    return lmax2 - 2 * degree


def commutator_matrix(a: NCPolynomial, basis: GNSBasis, spec: DiracSpec) -> np.ndarray:
    """[D, pi(a)] over the guard-banded domain.

    Columns are restricted to labels with l <= lmax - deg(a) so that a e^(l)
    expands entirely inside the built basis (no cutoff leakage); rows span
    the full basis, so the matrix is the exact action on the banded domain
    and its norm grows monotonically with lmax.  `_pi_entries` on the
    guarded columns, which lead in label order, times d_r - d_c.
    """
    width = _label_count(_guard_cut(basis.lmax2, max(a.degree(), 0)) + 1)
    r, c, v = _pi_entries(a, basis.qp, basis.lmax2, width)
    d = spec.diagonal(basis.label_array)
    mat = np.zeros((len(d), width), dtype=complex)
    mat[r, c] = (d[r] - d[c]) * v
    return mat


def _connected_roots(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Per node 0..n-1, the smallest node of its connected component under
    the edges (u, v): minimum-label propagation with pointer jumping."""
    root = np.arange(n)
    while True:
        low = np.minimum(root[u], root[v])
        new = root.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]
        if np.array_equal(new, root):
            return root
        root = new


def _ranks(groups: np.ndarray) -> np.ndarray:
    """Per element, how many earlier elements share its group value."""
    order = np.argsort(groups, kind="stable")
    rank = np.empty(len(groups), dtype=int)
    rank[order] = np.arange(len(groups)) - np.searchsorted(groups[order], groups[order])
    return rank


def commutator_norm_scan(a: NCPolynomial, qp: QParam, lmax2_list) -> list[float]:
    """Norm of the guarded commutator at increasing cutoffs (nondecreasing).

    Its entries are built once, on the labels of the top cutoff (no GNS
    basis), and their bits do not depend on the cutoff: at cutoff L it is
    the top one on rows l2 <= L and guarded columns l2 <= L - 2 deg(a).
    Its norm is the largest over the connected components of its graph (row
    and column labels joined by its entries), each a dense block in label
    order.  One batched SVD per component shape serves all cutoffs, and
    the values equal those of a scan rebuilt at every cutoff.
    """
    cutoffs = list(lmax2_list)
    if not cutoffs:
        return []
    deg = max(a.degree(), 0)
    cuts = [_guard_cut(lmax2, deg) for lmax2 in cutoffs]
    top = max(cutoffs)
    labels = np.array(dirac_labels(top))
    r, c, v = _pi_entries(a, qp, top, _label_count(max(cuts) + 1))
    d = DiracSpec(HalfInt(top)).diagonal(labels)
    v, l2 = (d[r] - d[c]) * v, labels[:, 0]
    row_live, col_live = l2 <= np.array(cutoffs)[:, None], l2 <= np.array(cuts)[:, None]
    scan, edge = np.nonzero(row_live[:, r] & col_live[:, c])
    norms = np.zeros(len(cutoffs))
    if not len(edge):
        return norms.tolist()
    # node k n + i is label i's row at cutoff k, and its column node is K n more
    n_nodes = row_live.size
    root = _connected_roots(scan * len(l2) + r[edge], n_nodes + scan * len(l2) + c[edge],
                            2 * n_nodes)
    row_comp, col_comp = root.reshape(2, *row_live.shape)
    # a label's place in its component, in label order; a component with an
    # entry holds live labels of one cutoff only
    row_pos, col_pos = (_ranks(comp.ravel()).reshape(comp.shape) for comp in (row_comp, col_comp))
    height = np.bincount(row_comp[row_live], minlength=2 * n_nodes)
    width = np.bincount(col_comp[col_live], minlength=2 * n_nodes)
    component = row_comp[scan, r[edge]]
    members = np.flatnonzero(np.bincount(component, minlength=2 * n_nodes))
    shape = height[members] * (width.max() + 1) + width[members]
    order = np.argsort(shape, kind="stable")
    for group in np.split(members[order], np.flatnonzero(np.diff(shape[order])) + 1):
        slot = np.full(2 * n_nodes, -1)
        slot[group] = np.arange(len(group))
        sel = slot[component] >= 0
        blocks = np.zeros((len(group), height[group[0]], width[group[0]]), dtype=complex)
        blocks[slot[component[sel]], row_pos[scan[sel], r[edge[sel]]],
               col_pos[scan[sel], c[edge[sel]]]] = v[edge[sel]]
        np.maximum.at(norms, group // len(l2), np.linalg.svd(blocks, compute_uv=False)[:, 0])
    return norms.tolist()


def summability_scan(lmax2: int, s: float) -> list[dict]:
    """Partial sums of sum_l (2l+1)^2 |2l+1|^(-s) over the label ladder.

    Each l contributes multiplicity (2l+1)^2; the increment is therefore
    (2l+1)^(2-s).  At s > 3 the increments decay summably, at s = 3 they
    are exactly 1/(2l+1) (harmonic, divergent): the dimension-3 signature.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    rows = []
    partial = 0.0
    for l2 in range(lmax2 + 1):
        inc = float((l2 + 1) ** 2) * float(l2 + 1) ** (-s)
        partial += inc
        rows.append({"l2": l2, "increment": inc, "partial": partial})
    return rows


def hilbert_module_product(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Even-subalgebra-valued pairing: sum over the group orbit of a* b.

    <a, b> = a* b + g(a* b); always a fixed point of the sign flip, i.e. an
    element of the even subalgebra.
    """
    t = mul(adjoint(a), b)
    return t + z2_act(t)


@dataclass
class CoveringCert:
    """Witness that every odd monomial factors through the four generators;
    a monomial whose decomposition fails its re-check is listed in
    ``mismatches`` and not counted."""

    generators: list[int] = field(default_factory=lambda: [ALPHA, ALPHA_STAR, BETA, BETA_STAR])
    decompositions: dict = field(default_factory=dict)
    mismatches: list[CanonicalMonomial] = field(default_factory=list)
    max_degree_checked: int = 0

    @property
    def odd_count(self) -> int:
        return len(self.decompositions)


def certify_covering(max_degree: int, qp: QParam) -> CoveringCert:
    """Exhaustively decompose odd monomials of degree <= max_degree.

    Each decomposition is re-verified: every factor even, and the product
    back equal to the monomial.  A monomial that fails is recorded as a
    mismatch.  Even monomials already live in the even subalgebra, so they
    certify trivially and are not listed.
    """
    if max_degree > 10:
        raise ValueError("covering certification capped at degree 10")
    cert = CoveringCert(max_degree_checked=max_degree)
    for mon in monomials_up_to(max_degree, parity="odd"):
        x = NCPolynomial.monomial(qp, mon)
        pairs = module_decompose(x)
        rebuilt = NCPolynomial.zero(qp)
        for factor, letter in pairs:
            rebuilt = rebuilt + mul(factor, NCPolynomial.generator(qp, letter))
        if rebuilt != x or any(m.degree % 2 for f, _ in pairs for m in f.terms):
            cert.mismatches.append(mon)
        else:
            cert.decompositions[mon] = pairs
    return cert


def spectrum_rows(lmax2: int, sector: str) -> list[dict]:
    """Eigenvalue table rows for the full or restricted diagonal operator.

    ``sector`` is "oriented" (all l) or "unoriented" (integer l only).  Per
    l: eigenvalue -(2l+1) with multiplicity (2l+1) (the j = l ladder over
    k), eigenvalue +(2l+1) with multiplicity 2l(2l+1).
    """
    if sector not in ("oriented", "unoriented"):
        raise ValueError("sector must be 'oriented' or 'unoriented'")
    rows = []
    for l2 in range(lmax2 + 1):
        if sector == "unoriented" and l2 % 2:
            continue
        rows.append({"l2": l2, "j2_class": "j=l", "eig": -(l2 + 1),
                     "mult": l2 + 1, "sector": sector})
        if l2 > 0:
            rows.append({"l2": l2, "j2_class": "j!=l", "eig": l2 + 1,
                         "mult": l2 * (l2 + 1), "sector": sector})
    return rows


# Random elements drawn for each sampled check of `assemble_unoriented_triple`.
_N_RANDOM = 20


def assemble_unoriented_triple(lmax2: int, qp: QParam, seed: int = 0) -> dict:
    """Build the restricted triple and run the defining condition checks.

    g is `_sector_signs` on the node array.  Returns {"checks":
    [CheckResult...], "restricted": rows}, the rows {"eig", "mult"} of D on
    g's +1 eigenspace, eigenvalues ascending.  Checked: (i) g commutes with
    D, (ii) the sign flip preserves the GNS pairing, (iii) pi of an even
    element maps an even-l basis vector into the sectors where g = +1,
    (iv) even elements are exactly the sign-flip fixed points at the
    polynomial level, (v) D on g's +1 eigenspace only carries odd
    eigenvalues.
    """
    basis = gram_schmidt_basis(lmax2, qp)
    spec = DiracSpec(HalfInt(lmax2))
    rng = random.Random(seed)
    checks = []

    d_diag = spec.diagonal(basis.label_array)
    g_diag = _sector_signs(qp, basis.sectors)[basis.label_sector]
    comm = np.max(np.abs(g_diag * d_diag - d_diag * g_diag))
    checks.append(CheckResult("g commutes with D", comm == 0.0,
                              "diagonal parity vs diagonal D", 0.0, float(comm)))

    worst = 0.0
    for _ in range(_N_RANDOM):
        x = random_polynomial(rng, qp, max_degree=4, n_terms=3)
        y = random_polynomial(rng, qp, max_degree=4, n_terms=3)
        lhs = gns_inner(z2_act(x), z2_act(y))
        rhs = gns_inner(x, y)
        worst = max(worst, abs(lhs - rhs))
    checks.append(CheckResult("g unitary on GNS pairing", worst <= 1e-12,
                              f"{_N_RANDOM} random pairs", 1e-12, worst))

    # pi(a) e per charge shift of a: the image sector and its largest node
    # value, the action weights times e's node vector
    even_labels = np.flatnonzero(basis.label_array[:, 0] % 2 == 0).tolist()
    images, sizes = [], []
    for _ in range(_N_RANDOM):
        a = random_polynomial(rng, qp, max_degree=4, n_terms=3, parity="even")
        label = rng.choice(even_labels)
        depth, sector = basis.label_depth[label], basis.label_sector[label]
        c1, c2 = basis.sectors[sector]
        for (k, d), w in action_weights(a, c1).items():
            images.append((c1 + k, c2 + d))
            sizes.append(float(np.abs(w * basis.vectors[depth, sector]).max()))
    worst = max((size for size, g in zip(sizes, _sector_signs(qp, images)) if g < 0),
                default=0.0)
    checks.append(CheckResult("even algebra preserves even subspace", worst == 0.0,
                              f"{_N_RANDOM} random even elements on even vectors", 0.0, worst))

    fixed_ok = True
    for _ in range(_N_RANDOM):
        a = random_polynomial(rng, qp, max_degree=4, n_terms=4)
        even = z2_project(a, "even")
        if z2_act(even) != even:
            fixed_ok = False
        if not z2_project(a, "odd").is_zero() and z2_act(a) == a:
            fixed_ok = False
    checks.append(CheckResult("even elements = sign-flip fixed points", fixed_ok,
                              "polynomial-level identification", 0.0,
                              0.0 if fixed_ok else 1.0))

    restricted = [{"eig": e, "mult": m}
                  for e, m in sorted(Counter(d_diag[g_diag > 0].tolist()).items())]
    eigs_ok = all(r["eig"] % 2 for r in restricted)
    checks.append(CheckResult("restricted spectrum odd integers only", eigs_ok,
                              "eigenvalues +-(2l+1), l integer", None,
                              0.0 if eigs_ok else 1.0))

    return {"checks": checks, "restricted": restricted}
