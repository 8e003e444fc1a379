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

import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR,
    CanonicalMonomial, NCPolynomial, QParam,
    adjoint, module_decompose, monomials_up_to, mul, random_polynomial,
    z2_act, z2_project,
)
from .gns import (
    GNSBasis, HalfInt, _sector_base_monomial, action_weights, gns_inner, gram_schmidt_basis,
    halfint,
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
    """Eigenvalue data d(l, j) with the sign-flip parity decoration."""

    lmax: HalfInt

    @property
    def lmax2(self) -> int:
        return self.lmax.twice

    def d(self, l, j) -> int:
        l2, j2 = halfint(l).twice, halfint(j).twice
        return -(l2 + 1) if j2 == l2 else l2 + 1

    def parity(self, l) -> int:
        return -1 if halfint(l).twice % 2 else 1

    def diagonal(self, labels: np.ndarray) -> np.ndarray:
        """d(l, j) for each row (l2, j2, k2) of an integer label array."""
        l2, j2 = labels[:, 0], labels[:, 1]
        return np.where(j2 == l2, -(l2 + 1), l2 + 1)


def dirac_labels(lmax2: int) -> list[tuple[int, int, int]]:
    """All (l2, j2, k2) with l <= lmax; (l2+1)^2 of them per l2."""
    out = []
    for l2 in range(lmax2 + 1):
        for j2 in range(-l2, l2 + 1, 2):
            for k2 in range(-l2, l2 + 1, 2):
                out.append((l2, j2, k2))
    return out


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
    out = []
    for (l2, j2, k2), defect in zip(basis.labels(), (np.abs(sign - expected) * size).tolist()):
        out.append(CheckResult(
            name=f"parity l2={l2} j2={j2} k2={k2}",
            passed=defect <= tol,
            detail=f"(-1)^(2l) = {1 if l2 % 2 == 0 else -1}",
            tolerance=tol,
            value=defect,
        ))
    return out


def _pi_entries(a: NCPolynomial, basis: GNSBasis, cols: np.ndarray):
    """The entries of pi(a) on the leading ``cols[s]`` entries of each source
    sector s: label-index arrays (row, column) and values.

    pi(a) is diagonal on node vectors (`gns.action_weights`), so the block
    from sector s to t = s + shift is V_t^T diag(w) V_s (node vectors are
    real), formed for all the blocks of one charge shift and shape at once.
    Each entry is the elementwise product of its two vectors and w, summed
    over the nodes, so its bits do not depend on the other entries.
    """
    if basis.qp != a.qp:
        raise ValueError("mixed deformation parameters")
    index = {sector: i for i, sector in enumerate(basis.sectors)}
    c1, top = np.array(basis.sectors)[:, 0], basis.lmax2
    out = [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0, complex),)]
    for (k, d), w in action_weights(a, np.arange(-top, top + 1)).items():  # row c1 + top
        tgt = np.array([index.get((s1 + k, s2 + d), -1) for s1, s2 in basis.sectors])
        src = np.flatnonzero((tgt >= 0) & (cols > 0))
        tgt = tgt[src]
        height, width = basis.depths[tgt], cols[src]
        shape = height * (top + 2) + width
        # the blocks in order of shape, each with its entries (i, j) in row-major order
        order = np.argsort(shape, kind="stable")
        size = (height * width)[order]
        block = np.repeat(order, size)
        n = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        vals = [np.zeros(0, complex)]
        for group in (order[shape[order] == value] for value in sorted(set(shape.tolist()))):
            vs = basis.vectors[:width[group[0]], src[group]].swapaxes(0, 1)[:, None]
            vt = basis.vectors[:height[group[0]], tgt[group]].swapaxes(0, 1)[:, :, None]
            vals.append(((w[c1[src[group]] + top][:, None, None] * vs) * vt).sum(axis=-1).ravel())
        out.append((basis.label_index[n // width[block], tgt[block]],
                    basis.label_index[n % width[block], src[block]], np.concatenate(vals)))
    return tuple(map(np.concatenate, zip(*out)))


def pi_matrix(a: NCPolynomial, basis: GNSBasis) -> np.ndarray:
    """Matrix of left multiplication by ``a`` in the orthonormal basis.

    Entry (r, c) is <e_r, a e_c>, rows and columns in the order of
    ``basis.labels()``: the dense view of the sector blocks of
    `_pi_entries`; charge-incompatible blocks vanish and are never formed.
    A basis at another q than a's raises ValueError.
    """
    r, c, v = _pi_entries(a, basis, basis.depths)
    mat = np.zeros((len(basis.label_array),) * 2, dtype=complex)
    mat[r, c] = v
    return mat


def _guard_cut(lmax2: int, degree: int) -> int:
    """Largest column l2 whose image under a degree-``degree`` element stays below lmax2."""
    cut = lmax2 - 2 * degree
    if cut < 0:
        raise ValueError(f"degree {degree} leaves no guarded columns below lmax2={lmax2}")
    return cut


def _commutator_entries(a: NCPolynomial, basis: GNSBasis, spec: DiracSpec):
    """[D, pi(a)] over the guard-banded domain as label-index arrays (row,
    column) and values: the entries of `_pi_entries` on the columns with
    l2 <= lmax2 - 2 deg(a), times d_r - d_c."""
    guarded = basis.label_array[:, 0] <= _guard_cut(basis.lmax2, max(a.degree(), 0))
    # depth order is l2 order in a sector, so its guarded entries lead
    r, c, v = _pi_entries(a, basis, np.bincount(basis.label_sector[guarded],
                                                minlength=len(basis.sectors)))
    d = spec.diagonal(basis.label_array)
    return r, c, (d[r] - d[c]) * v


def commutator_matrix(a: NCPolynomial, basis: GNSBasis, spec: DiracSpec) -> np.ndarray:
    """[D, pi(a)] over the guard-banded domain.

    Columns are restricted to labels with l <= lmax - deg(a) so that a e^(l)
    expands entirely inside the built basis (no cutoff leakage); rows span
    the full basis, so the matrix is the exact action on the banded domain
    and its norm grows monotonically with lmax.  The dense view of
    `_commutator_entries`; labels sort by l2, so the guarded columns lead.
    """
    r, c, v = _commutator_entries(a, basis, spec)
    l2 = basis.label_array[:, 0]
    mat = np.zeros((len(l2), int(np.sum(l2 <= _guard_cut(basis.lmax2, max(a.degree(), 0))))),
                   dtype=complex)
    mat[r, c] = v
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
    sorted_groups = groups[order]
    first = np.flatnonzero(np.r_[True, sorted_groups[1:] != sorted_groups[:-1]])
    starts = np.repeat(first, np.diff(np.r_[first, len(groups)]))
    rank = np.empty(len(groups), dtype=int)
    rank[order] = np.arange(len(groups)) - starts
    return rank


def commutator_norm_scan(a: NCPolynomial, qp: QParam, lmax2_list) -> list[float]:
    """Norm of the guarded commutator at increasing cutoffs (nondecreasing).

    One basis and the commutator's entries are built at the top cutoff.
    Labels sort by l2 and a lower cutoff's basis vectors are bitwise those
    of the top basis, so the commutator at cutoff L is the top one
    restricted to rows l2 <= L and guarded columns l2 <= L - 2 deg(a): the
    leading part of each sector-pair block, as depth order is l2 order in a
    sector.  Its norm is the largest over the connected components of its
    sector graph (row and column sectors joined by their live blocks), each
    a dense block with its rows and columns in label order: one sector-pair
    block for a single-charge element, chains of blocks for several charges.
    The components of all cutoffs go through one batched SVD per component
    shape, so each one's singular values do not depend on the others, and
    the values equal those of a scan rebuilt at every cutoff.
    """
    cutoffs = list(lmax2_list)
    if not cutoffs:
        return []
    deg = max(a.degree(), 0)
    cuts = [_guard_cut(lmax2, deg) for lmax2 in cutoffs]
    top = max(cutoffs)
    basis = gram_schmidt_basis(top, qp)
    r, c, v = _commutator_entries(a, basis, DiracSpec(HalfInt(top)))
    l2 = basis.label_array[:, 0]
    row_live, col_live = l2 <= np.array(cutoffs)[:, None], l2 <= np.array(cuts)[:, None]
    scan, edge = np.nonzero(row_live[:, r] & col_live[:, c])
    norms = np.zeros(len(cutoffs))
    if not len(edge):
        return norms.tolist()
    # per (cutoff k, label): its sector's row node k S + t; the column node is K S more
    n_nodes = len(cutoffs) * len(basis.sectors)
    node = np.arange(len(cutoffs))[:, None] * len(basis.sectors) + basis.label_sector
    root = _connected_roots(node[scan, r[edge]], n_nodes + node[scan, c[edge]], 2 * n_nodes)
    row_comp, col_comp = root[node], root[n_nodes + node]
    # a label's place in its component, in label order: the labels before it
    # have no larger l2, so they are live wherever it is
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
        np.maximum.at(norms, group // len(basis.sectors),
                      np.linalg.svd(blocks, compute_uv=False)[:, 0])
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
