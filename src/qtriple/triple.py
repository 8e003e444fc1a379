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
from dataclasses import dataclass, field

import numpy as np

from .ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR,
    DegreeOverflowError, NCPolynomial, QParam,
    adjoint, module_decompose, monomials_up_to, mul, random_polynomial,
    z2_act, z2_project,
)
from .gns import (
    GNSBasis, HalfInt, gns_inner, gram_schmidt_basis, halfint,
    _charge_blocks, _pair_blocks, _require_deformed,
)
from .rep import operator_norm
from .report import CheckResult, all_passed

__all__ = [
    "DiracSpec", "CoveringCert", "dirac_apply", "check_parity",
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


def dirac_labels(lmax2: int) -> list[tuple[int, int, int]]:
    """All (l2, j2, k2) with l <= lmax; (l2+1)^2 of them per l2."""
    out = []
    for l2 in range(lmax2 + 1):
        for j2 in range(-l2, l2 + 1, 2):
            for k2 in range(-l2, l2 + 1, 2):
                out.append((l2, j2, k2))
    return out


def dirac_apply(coeffs: dict[tuple[int, int, int], complex], spec: DiracSpec):
    """Scale a coefficient vector over basis labels by d(l, j), componentwise."""
    out = {}
    for (l2, j2, k2), c in coeffs.items():
        if l2 > spec.lmax2:
            raise ValueError(f"label l2={l2} outside lmax2={spec.lmax2}")
        out[(l2, j2, k2)] = spec.d(HalfInt(l2), HalfInt(j2)) * c
    return out


def check_parity(basis: GNSBasis) -> list[CheckResult]:
    """Assert g e^(l)_{jk} = (-1)^(2l) e^(l)_{jk} coefficientwise, per label."""
    out = []
    for (l2, j2, k2) in basis.labels():
        poly = basis.entries[(l2, j2, k2)].poly
        expected = poly if l2 % 2 == 0 else -poly
        defect = z2_act(poly).max_coeff_diff(expected)
        out.append(CheckResult(
            name=f"parity l2={l2} j2={j2} k2={k2}",
            passed=defect == 0.0,
            detail=f"(-1)^(2l) = {1 if l2 % 2 == 0 else -1}",
            tolerance=0.0,
            value=defect,
        ))
    return out


def pi_matrix(a: NCPolynomial, basis: GNSBasis,
              row_labels=None, col_labels=None) -> np.ndarray:
    """Matrix of left multiplication by ``a`` in the orthonormal basis.

    Entry (r, c) is <e_r, a e_c>.  Entries between charge-incompatible
    sectors vanish exactly (the pairing's charge selection rule) and are
    skipped rather than computed.  The row entries' charge blocks are
    grouped once per call and each column image's blocks once per column;
    every entry is then the moment pairing of the blocks the two share, so
    it equals `gns_inner(e_r, a e_c)` bitwise, a stray term in a foreign
    charge included.  The pairing's guarantees hold: mixed q raises
    ValueError, and a row degree plus an image degree above the cap raises
    DegreeOverflowError.
    """
    rows = list(row_labels if row_labels is not None else basis.labels())
    cols = list(col_labels if col_labels is not None else basis.labels())
    qp = a.qp
    _require_deformed(qp)
    a_charges = {m.charges for m in a.terms}
    row_polys = [basis.entries[lab].poly for lab in rows]
    if any(p.qp != qp for p in row_polys):
        raise ValueError("mixed deformation parameters")
    row_blocks = [_charge_blocks(p) for p in row_polys]
    row_degrees = [p.degree() for p in row_polys]
    rows_of: dict[tuple[int, int], list[int]] = {}
    for ri, p in enumerate(row_polys):
        rows_of.setdefault(next(iter(p.terms)).charges, []).append(ri)
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for ci, clab in enumerate(cols):
        entry = basis.entries[clab].poly
        image = mul(a, entry)
        blocks, degree = _charge_blocks(image), image.degree()
        c1, c2 = next(iter(entry.terms)).charges
        for (da, db) in a_charges:
            for ri in rows_of.get((c1 + da, c2 + db), ()):
                if row_degrees[ri] + degree > qp.max_degree:
                    raise DegreeOverflowError(
                        f"pairing degree {row_degrees[ri] + degree} exceeds cap {qp.max_degree}")
                mat[ri, ci] = _pair_blocks(row_blocks[ri], blocks, qp.q)
    return mat


def _guard_cut(lmax2: int, degree: int) -> int:
    """Largest column l2 whose image under a degree-``degree`` element stays below lmax2."""
    cut = lmax2 - 2 * degree
    if cut < 0:
        raise ValueError(f"degree {degree} leaves no guarded columns below lmax2={lmax2}")
    return cut


def commutator_matrix(a: NCPolynomial, basis: GNSBasis, spec: DiracSpec) -> np.ndarray:
    """[D, pi(a)] over the guard-banded domain.

    Columns are restricted to labels with l <= lmax - deg(a) so that a e^(l)
    expands entirely inside the built basis (no cutoff leakage); rows span
    the full basis, so the matrix is the exact action on the banded domain
    and its norm grows monotonically with lmax.
    """
    cut = _guard_cut(basis.lmax2, max(a.degree(), 0))
    rows = basis.labels()
    cols = [lab for lab in rows if lab[0] <= cut]
    pi = pi_matrix(a, basis, rows, cols)
    d_row = np.array([spec.d(HalfInt(l2), HalfInt(j2)) for (l2, j2, _) in rows])
    d_col = np.array([spec.d(HalfInt(l2), HalfInt(j2)) for (l2, j2, _) in cols])
    return d_row[:, None] * pi - pi * d_col[None, :]


def commutator_norm_scan(a: NCPolynomial, qp: QParam, lmax2_list) -> list[float]:
    """Norm of the guarded commutator at increasing cutoffs (nondecreasing).

    One basis and one guarded commutator are built at the top cutoff.  Labels
    sort by l2 and a lower cutoff's basis vectors are bitwise those of the
    top basis, so the commutator at cutoff L is the leading block of rows
    l2 <= L and guarded columns l2 <= L - 2 deg(a): the values equal those
    of a basis and commutator rebuilt at every cutoff.
    """
    cutoffs = list(lmax2_list)
    if not cutoffs:
        return []
    top = max(cutoffs)
    basis = gram_schmidt_basis(top, qp)
    comm = commutator_matrix(a, basis, DiracSpec(HalfInt(top)))
    deg = max(a.degree(), 0)
    l2s = [lab[0] for lab in basis.labels()]
    out = []
    for lmax2 in cutoffs:
        cut = _guard_cut(lmax2, deg)
        rows = sum(1 for l2 in l2s if l2 <= lmax2)
        cols = sum(1 for l2 in l2s if l2 <= cut)
        out.append(operator_norm(comm[:rows, :cols]))
    return out


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
    """Witness that every odd monomial factors through the four generators."""

    generators: list[int] = field(default_factory=lambda: [ALPHA, ALPHA_STAR, BETA, BETA_STAR])
    decompositions: dict = field(default_factory=dict)
    max_degree_checked: int = 0

    @property
    def odd_count(self) -> int:
        return len(self.decompositions)


def certify_covering(max_degree: int, qp: QParam) -> CoveringCert:
    """Exhaustively decompose odd monomials of degree <= max_degree.

    Each decomposition is re-verified by multiplying back; any mismatch
    aborts with the offending monomial.  Even monomials already live in the
    even subalgebra, so they certify trivially and are not listed.
    """
    if max_degree > 10:
        raise ValueError("covering certification capped at degree 10")
    cert = CoveringCert(max_degree_checked=max_degree)
    for mon in monomials_up_to(max_degree, parity="odd"):
        x = NCPolynomial.monomial(qp, mon)
        pairs = module_decompose(x)
        rebuilt = NCPolynomial.zero(qp)
        for factor, letter in pairs:
            if any(m.degree % 2 for m in factor.terms):
                raise AssertionError(f"odd factor while decomposing {mon}")
            rebuilt = rebuilt + mul(factor, NCPolynomial.generator(qp, letter))
        if rebuilt != x:
            raise AssertionError(f"decomposition of {mon} does not reassemble")
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


def aggregate_spectrum(rows) -> list[dict]:
    """Collapse rows to {"eig", "mult"} pairs, eigenvalues ascending."""
    acc: dict[int, int] = {}
    for r in rows:
        acc[r["eig"]] = acc.get(r["eig"], 0) + r["mult"]
    return [{"eig": e, "mult": m} for e, m in sorted(acc.items())]


def assemble_unoriented_triple(lmax2: int, qp: QParam, seed: int = 0,
                               n_random: int = 20) -> dict:
    """Build the restricted triple and run the defining condition checks.

    Returns {"checks": [CheckResult...], "spectrum": rows, "restricted":
    rows}.  Checked: (i) the parity operator commutes with D exactly,
    (ii) the sign flip preserves the GNS pairing, (iii) even elements
    preserve the even subspace (parities multiply), (iv) even elements are
    exactly the sign-flip fixed points at the polynomial level, (v) the
    restriction to the fixed subspace only carries odd eigenvalues.
    """
    basis = gram_schmidt_basis(lmax2, qp)
    spec = DiracSpec(HalfInt(lmax2))
    labels = basis.labels()
    rng = random.Random(seed)
    checks = []

    d_diag = np.array([spec.d(HalfInt(l2), HalfInt(j2)) for (l2, j2, _) in labels], dtype=float)
    g_diag = np.array([spec.parity(HalfInt(l2)) for (l2, _, _) in labels], dtype=float)
    comm = np.max(np.abs(g_diag * d_diag - d_diag * g_diag))
    checks.append(CheckResult("g commutes with D", comm == 0.0,
                              "diagonal parity vs diagonal D", 0.0, float(comm)))

    worst = 0.0
    for _ in range(n_random):
        x = random_polynomial(rng, qp, max_degree=4, n_terms=3)
        y = random_polynomial(rng, qp, max_degree=4, n_terms=3)
        lhs = gns_inner(z2_act(x), z2_act(y))
        rhs = gns_inner(x, y)
        worst = max(worst, abs(lhs - rhs))
    checks.append(CheckResult("g unitary on GNS pairing", worst <= 1e-12,
                              f"{n_random} random pairs", 1e-12, worst))

    worst = 0.0
    for _ in range(n_random):
        a = random_polynomial(rng, qp, max_degree=4, n_terms=3, parity="even")
        vec_label = rng.choice([lab for lab in labels if lab[0] % 2 == 0])
        product = mul(a, basis.entries[vec_label].poly)
        odd_part = z2_project(product, "odd")
        worst = max(worst, max((abs(c) for c in odd_part.terms.values()), default=0.0))
    checks.append(CheckResult("even algebra preserves even subspace", worst == 0.0,
                              f"{n_random} random even elements on even vectors", 0.0, worst))

    fixed_ok = True
    for _ in range(n_random):
        a = random_polynomial(rng, qp, max_degree=4, n_terms=4)
        even = z2_project(a, "even")
        if z2_act(even) != even:
            fixed_ok = False
        if not z2_project(a, "odd").is_zero() and z2_act(a) == a:
            fixed_ok = False
    checks.append(CheckResult("even elements = sign-flip fixed points", fixed_ok,
                              "polynomial-level identification", 0.0,
                              0.0 if fixed_ok else 1.0))

    restricted = spectrum_rows(lmax2, "unoriented")
    eigs_ok = all(r["eig"] % 2 != 0 for r in restricted)
    checks.append(CheckResult("restricted spectrum odd integers only", eigs_ok,
                              "eigenvalues +-(2l+1), l integer", None,
                              0.0 if eigs_ok else 1.0))

    return {
        "checks": checks,
        "all_pass": all_passed(checks),
        "spectrum": spectrum_rows(lmax2, "oriented"),
        "restricted": restricted,
    }
