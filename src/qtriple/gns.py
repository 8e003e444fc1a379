"""Haar state, GNS inner product and the matrix-coefficient orthonormal basis.

The invariant state has the diagonal closed form

    h(a^s b^n b*^m) = 0                       unless s = 0 and n = m,
    h((b b*)^n)     = (1 - q^2) / (1 - q^(2(n+1))) = 1 / sum_{i <= n} q^(2i),

i.e. a Jackson integral in the variable x = b b*; the sum is the form
evaluated, as the quotient loses digits near q = 1.  The factor (1 - q^2)
normalizes h(1) = 1 (the bare diagonal sum gives 1/(1 - q^2)); this
normalization choice is deliberate and is what every value below assumes.

The GNS space is a purified Fock representation: with `rep`'s action, h is
the vector state of pi (x) 1 at Omega = sum_n sqrt((1 - q^2) q^(2n))
e_(n, 0) (x) f_n.  The canonical monomial m = a^k b^i b*^j sends e_(f, z)
to W_m(f) e_(f - k, z + i - j), where W_m(f) is q^(f (i + j)) times
prod_{r < k} sqrt(1 - q^(2(f - r))) for a^k, prod_{r = 1..|k|}
sqrt(1 - q^(2(f + r))) for a*^|k|; one batched kernel gives it for arrays
of monomials and levels, and nothing is cached per sector.  In the charge
sector (c1, c2) (alpha exponent, beta minus beta* exponent) a monomial
sends Omega to a vector living only at (fock n - c1, z c2, n).  So each
sector is l2 over the node index n, and an element p is its node vectors
pi(p) Omega, g[n] = sqrt((1 - q^2) q^(2n)) sum_m c_m W_m(n) over its terms
of that charge, on the nodes x_n = q^(2n) down to 1e-18 plus 16 padding
nodes (a grid that depends on q only).  Node vectors are stored without
the constant sqrt(1 - q^2), which every pairing multiplies back as
1 - q^2.  The pairing is the node dot product inside each shared sector;
distinct sectors are orthogonal exactly.  pi(m) is diagonal in n: it sends
sector (c1, c2) to (c1 + k, c2 + i - j) and scales node n by W_m(n - c1)
(`action_weights`, the per-charge sum that gives pi(p) Omega too).

The orthonormal basis is Gram-Schmidt on node vectors (discretized
Stieltjes), orthonormal to rounding at every depth, and `GNSBasis` is its
output array: vectors[depth, sector, node].  Labels (l, j, k) attach to
sectors through c1 = -(j+k), c2 = k - j, with l - max(|j|, |k|) counting
depth inside the sector, so every entry lives in its label's sector by
construction; the meter, the operator layer, the restricted triple and the
parity and matrix-coefficient checks read the sector blocks of that array.
The orthogonal polynomials are little q-Jacobi polynomials in base q^2 with
parameters a = q^(2|c2|), b = q^(2|c1|) and, on the c1 > 0 branch, the
argument rescaled by q^(-2 c1) (a*^k a^k = prod (1 - q^(-2i) x) kills the
first k nodes).  Their closed-form series gives the x-coefficients of the
basis, built for every label when the entries are first read, and of
`t_matrix`: they serve printing and algebra products, cancel in deep
sectors, and no `verify` suite reads them.  The matrix coefficients' node
vectors come from a terminating 3phi1 transformation that does not cancel
at small q, evaluated for all sectors of one depth at once.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .ncpoly import (
    CanonicalMonomial, DegreeOverflowError, NCPolynomial, QParam, mul,
)
from . import rep as _rep

__all__ = [
    "HalfInt", "halfint", "GNSVector", "GNSBasis", "GramSingularError",
    "haar_exact", "haar_numeric", "gns_inner", "action_weights",
    "little_jacobi", "gram_schmidt_basis", "t_matrix", "matrix_coefficient_defect",
    "sector_of_label", "label_of_sector", "sector_labels",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """Half-integer stored as twice its value, to keep keys exact."""

    twice: int

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


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
    """An algebra element regarded as a vector under the pairing h(u* v).

    ``nodes``, when given, maps charge sectors to the element's node
    vectors, which every pairing then reads in place of evaluating ``poly``;
    it is kept as a read-only mapping.
    """

    poly: NCPolynomial
    nodes: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.nodes is not None:
            object.__setattr__(self, "nodes", MappingProxyType(dict(self.nodes)))


class GramSingularError(RuntimeError):
    """Sector measure numerically degenerate at the requested depth."""


# Largest lmax2 that `gram_schmidt_basis` builds.
LMAX2_CAP = 8

# The node grid runs until x_n < _NODE_FLOOR, then _NODE_PADDING nodes more,
# which sectors with c1 > 0 start late on.  Gram-Schmidt squares residuals,
# so one below _RESIDUAL_FLOOR leaves the normal float range.
_NODE_FLOOR = 1e-18
_NODE_PADDING = 16
_RESIDUAL_FLOOR = 1e-150


# ---------------------------------------------------------------------------
# Haar state
# ---------------------------------------------------------------------------

def _haar_monomial(mon: CanonicalMonomial, q: float) -> float:
    if mon.alpha != 0 or mon.beta != mon.beta_star:
        return 0.0
    # smallest term first; every term is positive, so nothing cancels
    return 1.0 / sum(q ** (2 * i) for i in range(mon.beta, -1, -1))


def _require_deformed(qp: QParam):
    # the invariant-state formulas degenerate to 0/0 at q = 1; the classical
    # regime is only wired through the algebra product, not the state
    if qp.q >= 1.0:
        raise ValueError("invariant state formulas require q < 1")


def haar_exact(x: NCPolynomial) -> complex:
    """Closed-form Haar value, term by term; exact up to float arithmetic."""
    _require_deformed(x.qp)
    return sum((c * _haar_monomial(m, x.qp.q) for m, c in x.terms.items()),
               start=0.0 + 0.0j)


def haar_numeric(x: NCPolynomial, t: _rep.TruncationSpec) -> complex:
    """Truncated diagonal sum (1-q^2) sum_n q^(2n) <(n,0)| x |(n,0)>.

    Independent of `haar_exact`: goes through the representation.  Only a
    charge-(0, 0) monomial has diagonal entries, its Fock weight f(n) at
    (n, 0) when z = 0 lies in its z interval (`rep._word_shifts`, one call
    for all of them), added per Fock level in the order of the monomials as
    pushing the unit columns (n, 0) through `rep.apply_poly_to_columns`
    does.  Agreement with `haar_exact` is up to the geometric tail
    q^(2 fock_dim) plus edge effects.
    """
    qp = x.qp
    _require_deformed(qp)
    q = qp.q
    diagonal = np.zeros(t.fock_dim, dtype=complex)
    terms = [(mon, c) for mon, c in x.terms.items() if mon.charges == (0, 0)]
    if terms:
        _, _, f, lo, hi = _rep._word_shifts([mon.letters() for mon, _ in terms], t, qp)
        for (_, c), f_m, lo_m, hi_m in zip(terms, f, lo, hi):
            diagonal += c * f_m if lo_m <= t.z_band < hi_m else 0.0
    total = 0.0 + 0.0j
    for n in range(t.fock_dim):
        total += q ** (2 * n) * diagonal[n]
    return complex((1.0 - q * q) * total)


def gns_inner(u, v) -> complex:
    """Sesquilinear pairing h(u* v); accepts GNSVector or NCPolynomial.

    The sum, over the charge sectors that u and v share, of the dot
    product of their node vectors there (no other sector's are formed).  No
    product u* v is formed, so only an element whose own coefficients
    cancel loses digits.
    """
    pu = u.poly if isinstance(u, GNSVector) else u
    pv = v.poly if isinstance(v, GNSVector) else v
    if pu.qp != pv.qp:
        raise ValueError("mixed deformation parameters")
    _require_deformed(pu.qp)
    q = pu.qp.q
    shared = _charges(u) & _charges(v)
    return _pair(_node_form(u, q, shared), _node_form(v, q, shared), q)


# ---------------------------------------------------------------------------
# Little q-Jacobi polynomials
# ---------------------------------------------------------------------------

def _jacobi_coefficients(n: int, a: float, b: float, qsq: float):
    """The coefficients of (y^k, k = 1..n) in p_n(y; a, b | qsq), in order."""
    num1 = num2 = den1 = den2 = 1.0
    for k in range(1, n + 1):
        num1 *= 1.0 - qsq ** (-(n - k + 1))
        num2 *= 1.0 - a * b * qsq ** (n + k)
        den1 *= 1.0 - a * qsq ** k
        den2 *= 1.0 - qsq ** k
        yield num1 * num2 / (den1 * den2) * qsq ** k


def _transformed_coefficients(n: int, a: np.ndarray, b: np.ndarray, qsq: float):
    """The factors r_j, j = 1..n, with which the terms of the 3phi1 in
    `_little_jacobi_at` grow: term_j = term_(j-1) r_j (1 - qsq^(k + 1 - j)),
    one entry per entry of the parameter arrays a and b."""
    for j in range(1, n + 1):
        yield ((1.0 - qsq ** (j - 1 - n)) * (1.0 - a * b * qsq ** (n + j))
               / ((1.0 - b * qsq ** j) * (1.0 - qsq ** j) * a))


def _little_jacobi_at(n: int, a: np.ndarray, b: np.ndarray, qsq: float,
                      x: np.ndarray) -> np.ndarray:
    """p_n(y; a, b | qsq) at the nodes y = x_k = qsq^k, k = 0 .. len(x) - 1
    (x_0 = 1 exactly), one row per entry of the parameter arrays a and b,
    by the terminating transformation

        p_n(y) = (b Q; Q)_n / (a Q; Q)_n (-a)^n Q^(n (n+1) / 2)
                 3phi1(Q^-n, a b Q^(n+1), 1/y; b Q; Q, y / a),    Q = qsq.

    At node k its series stops at j = k (the factor 1 - x_0 is 0), and its
    terms grow fast at small q, so the last one dominates: where the
    defining 2phi1 and the three-term recurrence cancel (the first nodes,
    where p_n nearly vanishes), this sum does not."""
    term = np.ones((len(a), len(x)))
    total = np.ones((len(a), len(x)))
    for j, r in enumerate(_transformed_coefficients(n, a, b, qsq), start=1):
        # term j carries 1 - x_(k+1-j); below k = j - 1 it is already 0
        term[:, j - 1:] *= r[:, None] * (1.0 - x[:len(x) - j + 1])
        total += term
    # (-a)^n by Python's float power: numpy's array power can differ in the last bit
    prefactor = np.array([(-v) ** n for v in a.tolist()]) * qsq ** (n * (n + 1) // 2)
    for i in range(1, n + 1):
        prefactor *= (1.0 - b * qsq ** i) / (1.0 - a * qsq ** i)
    return prefactor[:, None] * total


def little_jacobi(n: int, a: float, b: float, qsq: float, x: NCPolynomial) -> NCPolynomial:
    """Little q-Jacobi polynomial p_n(x; a, b | qsq) evaluated at an algebra element.

    Basic-hypergeometric series
        p_n(y) = sum_k [ (Q^-n;Q)_k (a b Q^(n+1);Q)_k / ((aQ;Q)_k (Q;Q)_k) ] (Q y)^k
    with Q = qsq.  Degree-n truncating series; the usual argument is the
    central-like variable b b*, with which the result commutes.  `t_matrix`
    forms the same coefficients as scalars on a sector's x-coefficient
    vector; this NCPolynomial route is its test oracle.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    qp = x.qp
    acc = NCPolynomial.one(qp)
    power = NCPolynomial.one(qp)
    for coeff in _jacobi_coefficients(n, a, b, qsq):
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


@lru_cache(maxsize=16)
def _grid(q: float) -> np.ndarray:
    """The node grid x_n = q^(2n), n = 0 .. until x_n < 1e-18, plus padding."""
    n = int(math.log(_NODE_FLOOR) / (2.0 * math.log(q))) + 1
    x = q ** (2.0 * np.arange(n + _NODE_PADDING))
    x.setflags(write=False)
    return x


def _fock_weights(alpha, degree, f, q: float) -> np.ndarray:
    """W_m(f) for the monomials m = a^k b^i b*^j with alpha exponents
    alpha[r] = k and b degrees degree[r] = i + j, one row per r over the
    levels f, 0 where f < 0: q^(f (i + j)), then the a^k or a*^|k| factors
    in the order of the module docstring's products, read from one table."""
    f = np.asarray(f)
    level = np.maximum(f, 0)
    top = max(map(abs, alpha), default=0)
    table = np.sqrt(1.0 - q ** (2.0 * np.arange(int(level.max()) + top + 1)))
    # the factors at levels f + s: for a^k, the clipped level 0 of f + s < 0
    # reads the zero factor that kills f < k
    factor = {s: table[np.maximum(level + s, 0)] for s in range(1 - top, top + 1)}
    power = {d: q ** (level * d).astype(float) for d in set(degree)}
    w = np.empty((len(alpha), *f.shape))
    for w_m, k, d in zip(w, alpha, degree):
        w_m[...] = power[d]
        for s in (range(0, -k, -1) if k > 0 else range(1, 1 - k)):
            w_m *= factor[s]
    np.copyto(w, 0.0, where=f < 0)
    return w


def _base_weights(sectors, q: float) -> np.ndarray:
    """Node vectors q^n W_base(n) of the sectors' base monomials, one row per
    sector (c1, c2): one `_fock_weights` call."""
    n = np.arange(len(_grid(q)))
    return q ** n * _fock_weights([c1 for c1, _ in sectors], [abs(c2) for _, c2 in sectors], n, q)


def _charge_weights(terms: Mapping, q: float, c1, scale: float) -> dict[tuple[int, int], np.ndarray]:
    """Per charge shift of the terms (monomial: coefficient), the sum of
    scale c_m W_m(n - c1) over those terms, each term scaled before the sum;
    one `_fock_weights` call."""
    f = np.arange(len(_grid(q))) - np.asarray(c1)[..., None]
    w = _fock_weights([m.alpha for m in terms], [m.beta + m.beta_star for m in terms], f, q)
    out: dict[tuple[int, int], np.ndarray] = {}
    for (m, c), w_m in zip(terms.items(), w):
        w_m = scale * c * w_m
        out[m.charges] = out[m.charges] + w_m if m.charges in out else w_m
    return out


def _charges(w) -> set[tuple[int, int]]:
    """The charge sectors of a GNSVector's node vectors, or else of its element's terms."""
    if isinstance(w, GNSVector) and w.nodes is not None:
        return set(w.nodes)
    return {m.charges for m in (w.poly if isinstance(w, GNSVector) else w).terms}


def _node_form(w, q: float, sectors) -> dict[tuple[int, int], np.ndarray]:
    """The node vectors a GNSVector carries, or else pi(p) Omega in the given
    sectors for its element p: the weights of pi(p) on sector (0, 0), from
    p's terms there, times Omega's node vector q^n."""
    if isinstance(w, GNSVector) and w.nodes is not None:
        return w.nodes
    terms = {m: c for m, c in (w.poly if isinstance(w, GNSVector) else w).terms.items()
             if m.charges in sectors}
    if not terms:
        return {}
    omega = q ** np.arange(len(_grid(q)))
    return {sector: g * omega for sector, g in _charge_weights(terms, q, 0, 1.0).items()}


def _pair(gu: dict, gv: dict, q: float) -> complex:
    """(1 - q^2) times the node dot products over the sectors both occupy."""
    total = 0.0 + 0.0j
    for sector in sorted(gu.keys() & gv.keys()):
        total += complex(np.vdot(gu[sector], gv[sector]))
    return (1.0 - q * q) * total


def action_weights(a: NCPolynomial, c1) -> dict[tuple[int, int], np.ndarray]:
    """Per charge shift (k, d) of a's terms, the node weights with which pi(a)
    maps sector (c1, c2) to (c1 + k, c2 + d): the sum of (1 - q^2) c_m
    W_m(n - c1) over those terms, the pairing's constant included.  An
    array of c1 values gives one row of weights per value."""
    _require_deformed(a.qp)
    q = a.qp.q
    return _charge_weights(a.terms, q, c1, 1.0 - q * q)


def sector_pair(u, v) -> complex:
    """GNS pairing of two single-sector elements, GNSVector or NCPolynomial.

    The same value as `gns_inner`; this entry point also checks that each
    argument lies in exactly one charge sector and raises ValueError
    otherwise.  Distinct sectors give an exact 0.
    """
    for w in (u, v):
        charges = {m.charges for m in (w.poly if isinstance(w, GNSVector) else w).terms}
        if len(charges) != 1:
            raise ValueError(f"element spans several charge sectors: {sorted(charges)}")
    return gns_inner(u, v)


def sector_moment(c1: int, c2: int, p: int, qp: QParam) -> float:
    """Moment <v_0, x^p v_0> = (1 - q^2) sum_n g(n)^2 x_n^p of the sector measure.

    v_0 is the sector's base monomial, x = b b* and g its node vector: a
    sum of nonnegative terms, stable at any sector.
    """
    _require_deformed(qp)
    q = qp.q
    g = _base_weights([(c1, c2)], q)[0]
    return float((1.0 - q * q) * np.sum(g * g * _grid(q) ** p))


# ---------------------------------------------------------------------------
# Orthonormal basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GNSBasis:
    """Orthonormal family e^(l)_{jk}: the Gram-Schmidt array itself.

    ``vectors[depth, i]`` is the node vector of the depth-th entry of the
    charge sector ``sectors[i]`` (sorted), zero past the sector's depth
    count, and ``depth_norms[depth, i]`` its Gram-Schmidt diagonal (the
    length of the component orthogonal to the lower filtration layers).  So
    every entry lives in its label's sector by construction.  The labels
    (l2, j2, k2), sorted, and the label-keyed views `norms` and `entries`
    derive from this layout; the entries' x-coefficients are built on their
    first read.  Immutable: the arrays are made read-only and the views are
    read-only mappings, so one instance can be shared (`gram_schmidt_basis`
    memoizes it).
    """

    qp: QParam
    sectors: tuple[tuple[int, int], ...]
    vectors: np.ndarray
    depth_norms: np.ndarray

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.depth_norms.setflags(write=False)

    @cached_property
    def depths(self) -> np.ndarray:
        """Per sector, its number of entries: the nonzero rows of its vectors."""
        out = np.count_nonzero(self.vectors.any(axis=2), axis=0)
        out.setflags(write=False)
        return out

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted labels as an (n, 3) array, with each one's depth and sector index."""
        depth, sector = np.nonzero(np.arange(len(self.vectors))[:, None] < self.depths)
        c1, c2 = np.array(self.sectors)[sector].T
        labels = np.stack([np.abs(c1) + np.abs(c2) + 2 * depth, -(c1 + c2), c2 - c1], axis=1)
        order = np.lexsort(labels.T[::-1])
        out = labels[order], depth[order], sector[order]
        for arr in out:
            arr.setflags(write=False)
        return out

    @property
    def label_array(self) -> np.ndarray:
        """The sorted labels as an (n, 3) integer array."""
        return self._layout[0]

    @property
    def label_depth(self) -> np.ndarray:
        """Per sorted label, its depth in its sector."""
        return self._layout[1]

    @property
    def label_sector(self) -> np.ndarray:
        """Per sorted label, the index of its sector."""
        return self._layout[2]

    @cached_property
    def label_index(self) -> np.ndarray:
        """Per (depth, sector index), the position of its label among the
        sorted labels; -1 past the sector's depth count."""
        _, depth, sector = self._layout
        out = np.full(self.vectors.shape[:2], -1)
        out[depth, sector] = np.arange(len(depth))
        out.setflags(write=False)
        return out

    @cached_property
    def _labels(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(map(tuple, self.label_array.tolist()))

    def labels(self) -> list[tuple[int, int, int]]:
        return list(self._labels)

    @property
    def lmax2(self) -> int:
        return int(self.label_array[-1, 0])

    @cached_property
    def norms(self) -> MappingProxyType:
        """Per label, its Gram-Schmidt diagonal."""
        _, depth, sector = self._layout
        return MappingProxyType(dict(zip(self._labels, self.depth_norms[depth, sector].tolist())))

    @cached_property
    def entries(self) -> MappingProxyType:
        """Per label, its GNSVector: the node vector, and as x-coefficients the
        closed-form series with leading coefficient 1 / norm > 0 (real parts
        only, so every imaginary part stays +0.0).  Built for every label on
        the first read, for printing and algebra products."""
        out = {}
        for key, d, i in zip(self._labels, self.label_depth.tolist(), self.label_sector.tolist()):
            c1, c2 = self.sectors[i]
            series = _matrix_coefficient_series(c1, c2, d, self.qp).terms
            lead = series[_sector_base_monomial(c1, c2, d)].real
            scale = 1.0 / (lead * self.depth_norms[d, i])
            poly = NCPolynomial(self.qp, {m: c.real * scale for m, c in series.items()})
            out[key] = GNSVector(poly, {(c1, c2): self.vectors[d, i]})
        return MappingProxyType(out)

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


def _phase(p: NCPolynomial) -> complex:
    """The phase that makes the leading (highest-degree) coefficient positive real."""
    lead = max(p.terms, key=lambda m: (m.degree, m.alpha, m.beta))
    c = p.terms[lead]
    return abs(c) / c


def _project_out(u: np.ndarray, done: list, rows: np.ndarray, measure: float) -> np.ndarray:
    """One modified Gram-Schmidt sweep of the rows of u against the finished vectors."""
    for vectors in done:
        v = vectors[rows]
        u = u - measure * (v * u).sum(axis=-1)[:, None] * v
    return u


# Bases `gram_schmidt_basis` keeps.  Node vectors grow like 1 / (1 - q): at
# q = 0.999 one lmax2 = 8 basis holds about 120 MB, so the memo stays small.
BASIS_MEMO_SIZE = 4


@lru_cache(maxsize=BASIS_MEMO_SIZE)
def gram_schmidt_basis(lmax2: int, qp: QParam) -> GNSBasis:
    """Orthonormalize the degree filtration sector by sector, in node space.

    Depth 0 of a sector is its weight vector, depth d is x times the depth
    d - 1 vector, orthogonalized against the earlier ones by modified
    Gram-Schmidt with one reorthogonalization pass (discretized Stieltjes),
    on all sectors of a depth at once; norm = the product of the residuals.
    Every operation is elementwise or a sum along one sector's nodes, so a
    lower cutoff's basis is bitwise the leading part of a higher one's.  The
    basis is this (depth, sector, node) array and the norms; the entries'
    x-coefficients come from the closed-form series when first read
    (`GNSBasis.entries`).  A residual below 1e-150 (extreme q) raises
    GramSingularError.

    One immutable basis per (lmax2, qp) is memoized, at most
    BASIS_MEMO_SIZE of them, least recently used first out: near q = 1 a
    basis is large (about 120 MB at q = 0.999, lmax2 = 8), and
    ``gram_schmidt_basis.cache_clear()`` releases them all.
    """
    if not 0 <= lmax2 <= LMAX2_CAP:
        raise ValueError(f"basis construction is desk-scale, need 0 <= lmax2 <= {LMAX2_CAP}")
    _require_deformed(qp)
    q = qp.q
    measure = 1.0 - q * q
    x = _grid(q)
    sectors = sector_labels(lmax2)
    depths = np.array([len(labels) for _, labels in sectors])
    top = int(depths.max())
    vectors = np.zeros((top, len(sectors), len(x)))
    norm = np.zeros((top, len(sectors)))
    for depth in range(top):
        rows = np.flatnonzero(depths > depth)
        u = x * vectors[depth - 1, rows] if depth else _base_weights([s for s, _ in sectors], q)
        done = [vectors[e] for e in range(depth)]
        for _ in range(2):  # reorthogonalization pass
            u = _project_out(u, done, rows, measure)
        residual = np.sqrt(measure * (u * u).sum(axis=-1))
        for i in np.flatnonzero(~(residual > _RESIDUAL_FLOOR)):
            raise GramSingularError(
                f"sector {sectors[rows[i]][0]} depth {depth}: residual {residual[i]:.3e} "
                f"is below {_RESIDUAL_FLOOR:.0e}")
        vectors[depth, rows] = u / residual[:, None]
        norm[depth, rows] = residual * norm[depth - 1, rows] if depth else residual
    return GNSBasis(qp, tuple(sector for sector, _ in sectors), vectors, norm)


def _matrix_coefficient_series(c1: int, c2: int, depth: int, qp: QParam) -> NCPolynomial:
    """Sector (c1, c2)'s base monomial times p_depth(x'), x' = q^(-2 c1) b b*
    on the c1 > 0 branch, from the closed-form x-coefficients: the k-th power
    of the scale by repeated complex products, times the series coefficient."""
    q = qp.q
    scale = complex(q ** (-2 * c1)) if c1 > 0 else 1.0 + 0.0j
    power = 1.0 + 0.0j
    coeffs = [power]
    for coeff in _jacobi_coefficients(depth, q ** (2 * abs(c2)), q ** (2 * abs(c1)), q * q):
        power = power * scale
        coeffs.append(coeff * power)
    return NCPolynomial(qp, {_sector_base_monomial(c1, c2, t): c for t, c in enumerate(coeffs)})


def _matrix_coefficient_nodes(sectors, weights: np.ndarray, depth: int, q: float) -> np.ndarray:
    """Node vectors, one row per sector (c1, c2), of the base monomial times
    p_depth(x'), unnormalized: `_little_jacobi_at` on all sectors at once,
    times their rows of `_base_weights`.  Those vanish below node c1 > 0,
    and at node n >= c1 the rescaled argument is the grid's node n - c1."""
    x = _grid(q)
    a = np.array([q ** (2 * abs(c2)) for _, c2 in sectors])
    b = np.array([q ** (2 * abs(c1)) for c1, _ in sectors])
    p = _little_jacobi_at(depth, a, b, q * q, x)
    shift = np.array([max(c1, 0) for c1, _ in sectors])
    for c1 in set(shift[shift > 0].tolist()):
        rows = shift == c1
        p[rows, c1:] = p[rows, :-c1]
        p[rows, :c1] = 0.0
    p *= weights
    return p


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

    The x-coefficients are scalars, formed with the float operations of
    `little_jacobi` on x' = q^(-2 c1) b b*, in the same order
    (`_matrix_coefficient_series`); they are kept for printing.  The node
    vector comes from a terminating transformation of the series evaluated
    at the nodes (`_little_jacobi_at`), not from those coefficients, whose
    sum cancels at small q.  The norm is that of the node vector, as
    `gns_inner` pairs it; a self-pairing that is not positive raises
    GramSingularError naming the sector and the depth.  The degree cap of
    `mul` applies to twice the element's degree.
    """
    l2, j2, k2 = halfint(l).twice, halfint(j).twice, halfint(k).twice
    if abs(j2) > l2 or abs(k2) > l2:
        raise ValueError(f"|j|, |k| must not exceed l, got l2={l2} j2={j2} k2={k2}")
    if (l2 - j2) % 2 or (l2 - k2) % 2:
        raise ValueError("j, k must match the half-integer class of l")
    _require_deformed(qp)
    c1, c2 = sector_of_label(j2, k2)
    depth = (l2 - max(abs(j2), abs(k2))) // 2
    q = qp.q
    vec = _matrix_coefficient_series(c1, c2, depth, qp)
    if 2 * vec.degree() > qp.max_degree:
        raise DegreeOverflowError(
            f"pairing degree {2 * vec.degree()} exceeds cap {qp.max_degree}")
    nodes = _matrix_coefficient_nodes([(c1, c2)], _base_weights([(c1, c2)], q), depth, q)[0]
    norm_sq = (1.0 - q * q) * float(np.dot(nodes, nodes))
    if not norm_sq > 0.0:
        raise GramSingularError(
            f"sector {(c1, c2)} depth {depth}: self-pairing {norm_sq:.3e} of the "
            f"matrix coefficient l2={l2} j2={j2} k2={k2} is not positive")
    scale = _phase(vec) / math.sqrt(norm_sq)
    return GNSVector(vec * scale, {(c1, c2): nodes * scale})


def basis_orthonormality_defect(basis: GNSBasis) -> float:
    """Worst deviation |<e_i, e_j> - delta_ij| of the basis from orthonormality.

    Entries of distinct sectors pair to an exact 0, so the worst is taken
    over the sectors' Gram blocks of the node array, one batched product
    per depth count, with the measure 1 - q^2 of the basis's q.
    """
    q = basis.qp.q
    worst = 0.0
    for size in set(basis.depths.tolist()):
        v = np.ascontiguousarray(basis.vectors[:size, basis.depths == size].swapaxes(0, 1))
        gram = (1.0 - q * q) * (np.conjugate(v) @ v.transpose(0, 2, 1))
        worst = max(worst, float(np.max(np.abs(gram - np.eye(size)))))
    return worst


def matrix_coefficient_defect(basis: GNSBasis) -> float:
    """Worst 1 - |<t^(l)_jk, e^(l)_jk>| over the labels of the basis.

    Each label's matrix coefficient (`t_matrix`'s node vector, before its
    normalization) is paired with the basis vector at its sector and depth,
    all sectors of one depth at once, so no x-coefficients are built.  A
    self-pairing that is not positive raises GramSingularError.
    """
    q = basis.qp.q
    measure = 1.0 - q * q
    rows = np.arange(len(basis.sectors))
    weights = _base_weights(basis.sectors, q)
    worst = 0.0
    for depth in range(len(basis.vectors)):
        # the sectors deeper than depth, and their weights, kept in one copy
        live = basis.depths[rows] > depth
        rows, weights = rows[live], weights[live]
        t = _matrix_coefficient_nodes([basis.sectors[i] for i in rows], weights, depth, q)
        norm_sq = measure * (t * t).sum(axis=1)
        for i in np.flatnonzero(~(norm_sq > 0.0)):
            raise GramSingularError(
                f"sector {basis.sectors[rows[i]]} depth {depth}: self-pairing "
                f"{norm_sq[i]:.3e} of the matrix coefficient is not positive")
        overlap = np.abs(measure * (t * basis.vectors[depth, rows]).sum(axis=1))
        worst = max(worst, float(np.max(1.0 - overlap / np.sqrt(norm_sq))))
    return worst
