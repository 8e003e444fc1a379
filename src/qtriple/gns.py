"""Haar state, GNS inner product and the matrix-coefficient orthonormal basis.

The invariant state has the diagonal closed form

    h(a^s b^n b*^m) = 0                       unless s = 0 and n = m,
    h((b b*)^n)     = (1 - q^2) / (1 - q^(2(n+1))),

i.e. a Jackson integral in the variable x = b b*.  The factor (1 - q^2)
normalizes h(1) = 1 (the bare diagonal sum gives 1/(1 - q^2)); this
normalization choice is deliberate and is what every value below assumes.

The GNS pairing <u, v> = h(u* v) vanishes across distinct charge sectors
(pairs (alpha exponent, beta minus beta* exponent)), which is exact here
because the closed form only feeds on charge-(0,0) monomials.  So the
pairing is computed charge-blocked: the terms of u and v are grouped by
charge, and only the sectors they share are paired, never expanding the
product u* v.  Inside the sector with charges (c1, c2) an element is its
base monomial times f(x), and the pairing is the positive moment
functional in x (`sector_moment`, memoized).  Its orthogonal polynomials
are little q-Jacobi polynomials in base q^2 with parameters a = q^(2|c2|),
b = q^(2|c1|) and, on the c1 > 0 branch, the argument rescaled by
q^(-2 c1) (the measure's support starts at x = q^(2 c1) there because
a*^k a^k = prod (1 - q^(-2i) x) kills the first k Jackson nodes).
Labels (l, j, k) attach to sectors through c1 = -(j+k), c2 = k - j, with
l - max(|j|, |k|) counting depth inside the sector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ncpoly import (
    BETA, BETA_STAR,
    CanonicalMonomial, DegreeOverflowError, NCPolynomial, QParam, mul,
)
from . import rep as _rep

__all__ = [
    "HalfInt", "halfint", "GNSVector", "GNSBasis", "GramSingularError",
    "haar_exact", "haar_numeric", "gns_inner", "charge_of",
    "little_jacobi", "gram_schmidt_basis", "t_matrix",
    "sector_of_label", "label_of_sector", "sector_labels",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """Half-integer stored as twice its value, to keep keys exact."""

    twice: int

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __add__(self, other):
        return HalfInt(self.twice + halfint(other).twice)

    def __sub__(self, other):
        return HalfInt(self.twice - halfint(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)


def halfint(v) -> HalfInt:
    """Coerce an int, float (half-integral) or HalfInt into a HalfInt."""
    if isinstance(v, HalfInt):
        return v
    if isinstance(v, int):
        return HalfInt(2 * v)
    twice = 2 * v
    if abs(twice - round(twice)) > 1e-9:
        raise ValueError(f"{v} is not half-integral")
    return HalfInt(int(round(twice)))


@dataclass(frozen=True)
class GNSVector:
    """An algebra element regarded as a vector under the pairing h(u* v)."""

    poly: NCPolynomial


class GramSingularError(RuntimeError):
    """Sector Gram matrix numerically singular: degree cutoff too small."""


# Largest lmax2 that `gram_schmidt_basis` builds.
LMAX2_CAP = 8


# ---------------------------------------------------------------------------
# Haar state
# ---------------------------------------------------------------------------

def _haar_monomial(mon: CanonicalMonomial, q: float) -> float:
    if mon.alpha != 0 or mon.beta != mon.beta_star:
        return 0.0
    n = mon.beta
    return (1.0 - q * q) / (1.0 - q ** (2 * (n + 1)))


def _require_deformed(qp: QParam):
    # the invariant-state formulas degenerate to 0/0 at q = 1; the classical
    # regime is only wired through the algebra product, not the state
    if qp.q >= 1.0:
        raise ValueError("invariant state formulas require q < 1")


def haar_exact(x: NCPolynomial, qp: QParam | None = None) -> complex:
    """Closed-form Haar value, term by term; exact up to float arithmetic."""
    qp = qp or x.qp
    _require_deformed(qp)
    return sum((c * _haar_monomial(m, qp.q) for m, c in x.terms.items()),
               start=0.0 + 0.0j)


def haar_numeric(x: NCPolynomial, t: _rep.TruncationSpec, qp: QParam | None = None) -> complex:
    """Truncated diagonal sum (1-q^2) sum_n q^(2n) <(n,0)| x |(n,0)>.

    Independent of `haar_exact`: goes through the representation matrices.
    Agreement is up to the geometric tail q^(2 fock_dim) plus edge effects.
    """
    qp = qp or x.qp
    _require_deformed(qp)
    q = qp.q
    cols = np.zeros((t.dim, t.fock_dim), dtype=complex)
    for n in range(t.fock_dim):
        cols[t.index(n, 0), n] = 1.0
    image = _rep.apply_poly_to_columns(x, t, cols)
    total = 0.0 + 0.0j
    for n in range(t.fock_dim):
        total += q ** (2 * n) * image[t.index(n, 0), n]
    return complex((1.0 - q * q) * total)


def gns_inner(u, v, qp: QParam | None = None) -> complex:
    """Sesquilinear pairing h(u* v); accepts GNSVector or NCPolynomial.

    h only sees charge-(0,0) monomials, so h(u* v) is the sum, over the
    charge sectors that u and v share, of the sector's moment pairing
    sum_{s,t} conj(f_s) g_t m(s + t).  Here f and g are the x-coefficient
    vectors of the parts of u and v in that sector and m is
    `sector_moment`.  Terms of different charges are never multiplied.
    Every moment is a sum of positive terms, so the value is stable at any
    sector depth, where the expanded product adjoint(u) v would contract
    alpha powers with coefficients growing like q^(-|c1|^2) that cancel.
    The degree cap of `mul` still applies to deg u + deg v.
    """
    pu = u.poly if isinstance(u, GNSVector) else u
    pv = v.poly if isinstance(v, GNSVector) else v
    if pu.qp != pv.qp:
        raise ValueError("mixed deformation parameters")
    if pu.degree() + pv.degree() > pu.qp.max_degree:
        raise DegreeOverflowError(
            f"pairing degree {pu.degree() + pv.degree()} exceeds cap {pu.qp.max_degree}")
    qp = qp or pu.qp
    _require_deformed(qp)
    bu, bv = _charge_blocks(pu), _charge_blocks(pv)
    total = 0.0 + 0.0j
    for charge in bu.keys() & bv.keys():
        total += _block_pair(charge, bu[charge], bv[charge], qp.q)
    return total


def charge_of(mon: CanonicalMonomial) -> tuple[int, int]:
    """The conserved bigrading (alpha exponent, beta minus beta* exponent)."""
    return mon.charges


# ---------------------------------------------------------------------------
# Little q-Jacobi polynomials
# ---------------------------------------------------------------------------

def little_jacobi(n: int, a: float, b: float, qsq: float, x: NCPolynomial) -> NCPolynomial:
    """Little q-Jacobi polynomial p_n(x; a, b | qsq) evaluated at an algebra element.

    Basic-hypergeometric series
        p_n(y) = sum_k [ (Q^-n;Q)_k (a b Q^(n+1);Q)_k / ((aQ;Q)_k (Q;Q)_k) ] (Q y)^k
    with Q = qsq.  Degree-n truncating series; the usual argument is the
    central-like variable b b*, with which the result commutes.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    qp = x.qp
    acc = NCPolynomial.one(qp)
    power = NCPolynomial.one(qp)
    coeff = 1.0
    num1 = num2 = den1 = den2 = 1.0
    for k in range(1, n + 1):
        num1 *= 1.0 - qsq ** (-(n - k + 1))
        num2 *= 1.0 - a * b * qsq ** (n + k)
        den1 *= 1.0 - a * qsq ** k
        den2 *= 1.0 - qsq ** k
        coeff = num1 * num2 / (den1 * den2) * qsq ** k
        power = mul(power, x)
        acc = acc + coeff * power
    return acc


# ---------------------------------------------------------------------------
# Sector bookkeeping
# ---------------------------------------------------------------------------

def sector_of_label(j2: int, k2: int) -> tuple[int, int]:
    """Charges (c1, c2) of the sector carrying label (j, k) (doubled input)."""
    if (j2 + k2) % 2:
        raise ValueError("j and k must have equal half-integer parity")
    return (-(j2 + k2) // 2, (k2 - j2) // 2)


def label_of_sector(c1: int, c2: int) -> tuple[int, int]:
    """Doubled (j2, k2) of the sector with charges (c1, c2)."""
    return (-(c1 + c2), c2 - c1)


def sector_labels(lmax2: int):
    """All (l2, j2, k2) labels with l <= lmax, grouped by sector.

    Returns pairs ((c1, c2), [(l2, j2, k2), ...]) with depth order inside
    the sector; the label count at fixed l2 over all sectors is (l2 + 1)^2.
    """
    out = []
    for c1 in range(-lmax2, lmax2 + 1):
        for c2 in range(-(lmax2 - abs(c1)), lmax2 - abs(c1) + 1):
            l2_min = abs(c1) + abs(c2)
            j2, k2 = label_of_sector(c1, c2)
            labels = [(l2, j2, k2) for l2 in range(l2_min, lmax2 + 1, 2)]
            if labels:
                out.append(((c1, c2), labels))
    out.sort()
    return out


def _sector_base_monomial(c1: int, c2: int, depth: int) -> CanonicalMonomial:
    return CanonicalMonomial(c1, max(c2, 0) + depth, max(-c2, 0) + depth)


def _charge_blocks(p: NCPolynomial) -> dict[tuple[int, int], list[tuple[int, complex]]]:
    """The terms of p grouped by charge, as (depth, coefficient) pairs.

    The monomial of depth t in sector (c1, c2) is the sector's base
    monomial times x^t (b and b* commute), so its coefficient is the t-th
    x-coefficient of p's part in that sector.
    """
    blocks: dict[tuple[int, int], list[tuple[int, complex]]] = {}
    for m, c in p.terms.items():
        blocks.setdefault(m.charges, []).append((min(m.beta, m.beta_star), c))
    return blocks


def _block_pair(charge: tuple[int, int], fu, fv, q: float) -> complex:
    """Moment pairing of two (depth, coefficient) blocks of one sector."""
    c1, c2 = charge
    return sum((cs.conjugate() * ct * _moment(c1, c2, s + t, q)
                for s, cs in fu for t, ct in fv), start=0.0 + 0.0j)


def sector_pair(u: NCPolynomial, v: NCPolynomial, qp: QParam | None = None) -> complex:
    """GNS pairing of two single-sector elements, through the moment functional.

    The same value as `gns_inner`, which pairs sector by sector anyway;
    this entry point also checks that each argument lies in exactly one
    charge sector and raises ValueError otherwise.  Distinct sectors give
    an exact 0.
    """
    for p in (u, v):
        charges = {m.charges for m in p.terms}
        if len(charges) != 1:
            raise ValueError(f"element spans several charge sectors: {sorted(charges)}")
    return gns_inner(u, v, qp)


def sector_moment(c1: int, c2: int, p: int, qp: QParam) -> float:
    """Moment <v_0, x^p v_0> of the sector measure, by direct Jackson summation.

    v_0 is the sector's base monomial and x = b b*.  The summand is a
    product of nonneg terms, so unlike the canonical-form expansion (whose
    alpha contractions cancel catastrophically for large |c1|) this sum is
    stable at any sector.  Memoized per (c1, c2, p, q) in a bounded table.
    """
    _require_deformed(qp)
    return _moment(c1, c2, p, qp.q)


# A basis at lmax2 = 8, its Gram and the commutator scans of seven elements
# of degree <= 2 use 425 distinct (c1, c2, p) at one q; the bound leaves
# room for several q.
@lru_cache(maxsize=4096)
def _moment(c1: int, c2: int, p: int, q: float) -> float:
    total = 0.0
    k = abs(c1) if c1 > 0 else 0
    while True:
        node = q ** (2 * k)
        w = node ** (p + abs(c2) + 1)
        if c1 > 0:
            for i in range(c1):
                w *= 1.0 - q ** (2 * (k - i))
        elif c1 < 0:
            for i in range(1, -c1 + 1):
                w *= 1.0 - q ** (2 * (k + i))
        total += w
        if w <= 1e-18 * max(total, 1e-300):
            break
        k += 1
    return (1.0 - q * q) * total


# ---------------------------------------------------------------------------
# Orthonormal basis
# ---------------------------------------------------------------------------

@dataclass
class GNSBasis:
    """Orthonormal family e^(l)_{jk}, keyed by doubled labels (l2, j2, k2).

    ``norms`` records the Gram-Schmidt diagonal (the length of the component
    orthogonal to lower filtration layers) for each label.
    """

    lmax: HalfInt
    entries: dict[tuple[int, int, int], GNSVector]
    norms: dict[tuple[int, int, int], float]

    @property
    def lmax2(self) -> int:
        return self.lmax.twice

    def labels(self) -> list[tuple[int, int, int]]:
        return sorted(self.entries.keys())

    def vector(self, l, j, k) -> GNSVector:
        return self.entries[(halfint(l).twice, halfint(j).twice, halfint(k).twice)]

    def to_json_dict(self) -> dict:
        return {
            "lmax2": self.lmax2,
            "entries": [
                {"l2": l2, "j2": j2, "k2": k2,
                 "norm": self.norms[(l2, j2, k2)],
                 "poly": self.entries[(l2, j2, k2)].poly.to_json_dict()}
                for (l2, j2, k2) in self.labels()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, qp: QParam | None = None) -> "GNSBasis":
        entries, norms = {}, {}
        for e in data["entries"]:
            key = (int(e["l2"]), int(e["j2"]), int(e["k2"]))
            entries[key] = GNSVector(NCPolynomial.from_json_dict(e["poly"], qp))
            norms[key] = float(e["norm"])
        return cls(HalfInt(int(data["lmax2"])), entries, norms)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)


def _sign_fix(p: NCPolynomial) -> NCPolynomial:
    """Rotate the phase so the leading (highest-degree) coefficient is positive real."""
    if p.is_zero():
        return p
    lead = max(p.terms, key=lambda m: (m.degree, m.alpha, m.beta))
    c = p.terms[lead]
    return p * (abs(c) / c)


def gram_schmidt_basis(lmax2: int, qp: QParam) -> GNSBasis:
    """Orthonormalize the degree filtration sector by sector.

    Inside a sector every vector is (base monomial) * x^t, so the pairing
    reduces to the moment functional `sector_moment` and the Gram-Schmidt
    sweep runs on x-coefficient vectors against the moment matrix.  The
    moments are positive sums (1e-16 relative error at any sector), which
    keeps deep alpha-power sectors well-posed where the expanded
    canonical-form pairing would cancel catastrophically.  Modified
    Gram-Schmidt with one reorthogonalization pass; a pivot below 1e-12
    times the vector's own norm raises GramSingularError.
    """
    if not 0 <= lmax2 <= LMAX2_CAP:
        raise ValueError(f"basis construction is desk-scale, need 0 <= lmax2 <= {LMAX2_CAP}")
    entries: dict[tuple[int, int, int], GNSVector] = {}
    norms: dict[tuple[int, int, int], float] = {}
    for (c1, c2), labels in sector_labels(lmax2):
        depth_count = len(labels)
        moments = [sector_moment(c1, c2, p, qp) for p in range(2 * depth_count - 1)]
        done: list[list[float]] = []

        def pair(u, v):
            return sum(ui * moments[s + t] * vt
                       for s, ui in enumerate(u) for t, vt in enumerate(v))

        for depth, key in enumerate(labels):
            u = [0.0] * (depth + 1)
            u[depth] = 1.0
            for _ in range(2):  # reorthogonalization pass
                for e in done:
                    c = pair(e, u)
                    u = [ui - c * (e[i] if i < len(e) else 0.0)
                         for i, ui in enumerate(u)]
            norm_sq = pair(u, u)
            if norm_sq <= 1e-12 * moments[2 * depth]:
                raise GramSingularError(
                    f"sector {(c1, c2)} depth {depth}: Gram pivot {norm_sq:.3e}")
            nrm = math.sqrt(norm_sq)
            e_coeffs = [ui / nrm for ui in u]
            done.append(e_coeffs)
            poly = NCPolynomial(qp, {
                _sector_base_monomial(c1, c2, t): c
                for t, c in enumerate(e_coeffs) if c != 0.0})
            entries[key] = GNSVector(_sign_fix(poly))
            norms[key] = nrm
    return GNSBasis(HalfInt(lmax2), entries, norms)


def t_matrix(l, j, k, qp: QParam) -> GNSVector:
    """Normalized matrix coefficient t^(l)_{jk} as an algebra element.

    Built from the sector data: base monomial for the charges (c1, c2) =
    (-(j+k), k-j) times the little q-Jacobi polynomial of degree
    l - max(|j|,|k|) in x = b b* (argument rescaled by q^(-2 c1) on the
    c1 > 0 branch).  One formula covers all four (j, k) index regions; the
    regions related by the involution agree automatically because adjoint
    maps sector (c1, c2) to (-c1, -c2) at equal depth.  Normalization is
    numeric (unit GNS norm); the phase makes the leading coefficient
    positive, matching `gram_schmidt_basis` up to that convention.
    """
    l2, j2, k2 = halfint(l).twice, halfint(j).twice, halfint(k).twice
    if abs(j2) > l2 or abs(k2) > l2:
        raise ValueError(f"|j|, |k| must not exceed l, got l2={l2} j2={j2} k2={k2}")
    if (l2 - j2) % 2 or (l2 - k2) % 2:
        raise ValueError("j, k must match the half-integer class of l")
    c1, c2 = sector_of_label(j2, k2)
    depth = (l2 - max(abs(j2), abs(k2))) // 2
    q = qp.q
    x = mul(NCPolynomial.generator(qp, BETA), NCPolynomial.generator(qp, BETA_STAR))
    if c1 > 0:
        x = x * (q ** (-2 * c1))
    poly = little_jacobi(depth, q ** (2 * abs(c2)), q ** (2 * abs(c1)), q * q, x)
    vec = mul(NCPolynomial.monomial(qp, _sector_base_monomial(c1, c2, 0)), poly)
    nrm = math.sqrt(sector_pair(vec, vec, qp).real)
    return GNSVector(_sign_fix(vec * (1.0 / nrm)))


def basis_orthonormality_defect(basis: GNSBasis, qp: QParam) -> float:
    """Worst deviation |<e_i, e_j> - delta_ij| of the basis from orthonormality.

    A charge-blocked Gram: every entry's terms are grouped by charge and
    the entries are paired block by block inside each charge group, with
    the moment pairing of `gns_inner`.  Entries that share no charge pair
    to an exact 0 without any work, and a stray term in a foreign sector
    still meets that sector's entries there as a nonzero cross-pairing.
    """
    _require_deformed(qp)
    labels = basis.labels()
    groups: dict[tuple[int, int], list[tuple[int, list]]] = {}
    for i, lab in enumerate(labels):
        for charge, block in _charge_blocks(basis.entries[lab].poly).items():
            groups.setdefault(charge, []).append((i, block))
    # only the pairs that share a charge, and every diagonal entry, since
    # an entry without terms must still read as a defect of 1
    gram = {(i, i): 0.0 + 0.0j for i in range(len(labels))}
    for charge, members in groups.items():
        for n, (i, bi) in enumerate(members):
            for j, bj in members[n:]:
                gram[i, j] = gram.get((i, j), 0.0) + _block_pair(charge, bi, bj, qp.q)
    return max(abs(val - (1.0 if i == j else 0.0)) for (i, j), val in gram.items())
