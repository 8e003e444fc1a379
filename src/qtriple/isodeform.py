"""Twist calculus on a finite bigraded operator model of the 2-torus action.

The Hilbert space is C^N (x) C^N with commuting "position" generators
p1 = P (x) 1, p2 = 1 (x) P, P = diag(0..N-1), and the two-parameter unitary
group U(s) = exp(i(s1 p1 + s2 p2)).  An operator is homogeneous of bidegree
(n1, n2) when conjugation by U(s) scales it by exp(i(s1 n1 + s2 n2)); entry
((a,b),(c,d)) of a matrix has bidegree (a-c, b-d), so every operator splits
into finitely many homogeneous components.

Two modes:

* exact (cyclic) mode: theta = p/N rational with denominator dividing N, so
  lambda = exp(2 pi i theta) satisfies lambda^N = 1 and bidegrees live
  mod N.  The cyclic shifts V (x) 1 (bidegree (1,0), the "shift") and
  1 (x) V (bidegree (0,1), the "clock" direction) are exactly homogeneous
  and every twist identity below holds to float roundoff.
* generic mode: arbitrary real theta; bidegrees are kept as plain integers
  (the wraparound band of a cyclic shift is then its own component), which
  again makes the identities exact rather than approximate.

Left/right twists insert diagonal lambda powers,

    l(T) = sum T_{n1,n2} lambda^(n2 p1),     r(T) = sum T_{n1,n2} lambda^(n1 p2),

and the deformed product of homogeneous x, y is x * y = lambda^(n1' n2) x y
(right variant x *_r y = lambda^(n1 n2') x y), extended bilinearly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .report import CheckResult

__all__ = [
    "TorusModel", "BigradedOp", "GradingError", "build_model", "decompose",
    "left_twist", "right_twist", "star_product", "star_product_right",
    "verify_lemma_a", "verify_lemma_b", "z2_twist_project",
    "twisted_triple_check", "homogeneity_defect",
]


class GradingError(ValueError):
    """The supplied bidegree grading is not a group homomorphism to Z_2."""


@dataclass(frozen=True)
class TorusModel:
    """Cyclic order N, deformation angle theta, and the derived machinery."""

    n: int
    theta: Fraction | float
    exact: bool

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("model order must be >= 2")
        if self.exact:
            if not isinstance(self.theta, Fraction):
                raise ValueError("exact mode needs a Fraction theta")
            if self.n % self.theta.denominator != 0:
                raise ValueError(
                    f"exact theta denominator {self.theta.denominator} must divide N={self.n}")

    @property
    def dim(self) -> int:
        return self.n * self.n

    @property
    def lam(self) -> complex:
        return cmath.exp(2j * math.pi * float(self.theta))

    def lam_pow(self, k: int) -> complex:
        return complex(self.lam_powers(k))

    def lam_powers(self, k) -> np.ndarray:
        """lambda^k elementwise for an integer exponent array."""
        k = np.asarray(k, dtype=np.int64)
        if self.exact:
            # reduce the exponent mod the denominator so float error never grows with k
            p, d = self.theta.numerator, self.theta.denominator
            return np.exp(2j * np.pi * ((p * k) % d / d))
        return np.exp(2j * np.pi * self.theta * k)

    def p_index(self, which: int) -> np.ndarray:
        """Integer eigenvalues of p1 (which=1) or p2 (which=2), basis order (a, b)."""
        a, b = np.divmod(np.arange(self.dim), self.n)
        return a if which == 1 else b

    def p_diag(self, which: int) -> np.ndarray:
        """Eigenvalue vector of p1 (which=1) or p2 (which=2), basis order (a, b)."""
        return self.p_index(which).astype(float)

    def p_matrix(self, which: int) -> np.ndarray:
        return np.diag(self.p_diag(which)).astype(complex)

    def u_of(self, s1: float, s2: float) -> np.ndarray:
        """The torus unitary U(s) = exp(i(s1 p1 + s2 p2)) (diagonal)."""
        phase = np.exp(1j * (s1 * self.p_diag(1) + s2 * self.p_diag(2)))
        return np.diag(phase)

    def torus_conjugate(self, mat: np.ndarray, s1: float, s2: float) -> np.ndarray:
        phase = np.exp(1j * (s1 * self.p_diag(1) + s2 * self.p_diag(2)))
        return (phase[:, None] * mat) * np.conj(phase)[None, :]

    @property
    def shift(self) -> np.ndarray:
        """Cyclic shift on the first factor; homogeneous of bidegree (1, 0) mod N."""
        v = np.roll(np.eye(self.n), 1, axis=0).astype(complex)
        return np.kron(v, np.eye(self.n, dtype=complex))

    @property
    def clock(self) -> np.ndarray:
        """Cyclic shift on the second factor; the bidegree (0, 1) direction."""
        v = np.roll(np.eye(self.n), 1, axis=0).astype(complex)
        return np.kron(np.eye(self.n, dtype=complex), v)

    def generators(self) -> dict[str, np.ndarray]:
        return {"shift": self.shift, "clock": self.clock}

    def reduce_degree(self, n1: int, n2: int) -> tuple[int, int]:
        if self.exact:
            return (n1 % self.n, n2 % self.n)
        return (n1, n2)


def build_model(n: int, theta) -> TorusModel:
    """Construct the model; rational theta (Fraction, int, or "p/q" string)
    selects exact mode, float theta the generic mode."""
    if isinstance(theta, str):
        theta = Fraction(theta)
    if isinstance(theta, int):
        theta = Fraction(theta)
    if isinstance(theta, Fraction):
        return TorusModel(n, theta, exact=True)
    return TorusModel(n, float(theta), exact=False)


@dataclass
class BigradedOp:
    """Finite sum of homogeneous components, keyed by bidegree."""

    model: TorusModel
    components: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def to_matrix(self) -> np.ndarray:
        out = np.zeros((self.model.dim, self.model.dim), dtype=complex)
        for comp in self.components.values():
            out += comp
        return out

    def degrees(self) -> list[tuple[int, int]]:
        return sorted(self.components.keys())

    def is_homogeneous(self) -> bool:
        return len(self.components) <= 1


def decompose(mat: np.ndarray, model: TorusModel) -> BigradedOp:
    """Split a matrix into homogeneous components.

    Entry ((a,b),(c,d)) carries bidegree (a-c, b-d); in exact mode the
    degrees are reduced mod N, which coincides with the discrete Fourier
    average of s -> U(s) T U(s)^-1 over the N x N torus grid (the grid only
    resolves degrees mod N).  Reconstruction is exact: the components
    partition the entries.
    """
    if mat.shape != (model.dim, model.dim):
        raise ValueError(f"matrix must be {model.dim} x {model.dim}")
    a, b = np.divmod(np.arange(model.dim), model.n)
    d1 = a[:, None] - a[None, :]
    d2 = b[:, None] - b[None, :]
    if model.exact:
        d1 = d1 % model.n
        d2 = d2 % model.n
    comps: dict[tuple[int, int], np.ndarray] = {}
    nz = np.argwhere(mat != 0)
    seen = set((int(d1[i, j]), int(d2[i, j])) for i, j in nz)
    for deg in seen:
        mask = (d1 == deg[0]) & (d2 == deg[1])
        comp = np.where(mask, mat, 0.0)
        comps[deg] = comp
    return BigradedOp(model, comps)


def _as_bigraded(x, model: TorusModel) -> BigradedOp:
    if isinstance(x, BigradedOp):
        return x
    return decompose(np.asarray(x, dtype=complex), model)


def homogeneity_defect(op: BigradedOp) -> float:
    """Worst defect of U(s) C U(s)^-1 = exp(i(s1 n1 + s2 n2)) C over the grid."""
    model = op.model
    worst = 0.0
    for (j, k) in ((0, 1), (1, 0), (1, 1), (model.n - 1, 1)):
        s1 = 2 * math.pi * j / model.n
        s2 = 2 * math.pi * k / model.n
        for (n1, n2), comp in op.components.items():
            expected = cmath.exp(1j * (s1 * n1 + s2 * n2)) * comp
            got = model.torus_conjugate(comp, s1, s2)
            worst = max(worst, float(np.max(np.abs(got - expected))) if comp.size else 0.0)
    return worst


def _twist(op, model: TorusModel | None, left: bool) -> np.ndarray:
    op = _as_bigraded(op, model) if model is not None else op
    m = op.model
    p = m.p_index(1 if left else 2)
    out = np.zeros((m.dim, m.dim), dtype=complex)
    for (n1, n2), comp in op.components.items():
        out += comp * m.lam_powers((n2 if left else n1) * p)[None, :]
    return out


def left_twist(op, model: TorusModel | None = None) -> np.ndarray:
    """l(T): each (n1, n2) component multiplied on the right by lambda^(n2 p1)."""
    return _twist(op, model, left=True)


def right_twist(op, model: TorusModel | None = None) -> np.ndarray:
    """r(T): each (n1, n2) component multiplied on the right by lambda^(n1 p2)."""
    return _twist(op, model, left=False)


def star_product(x: BigradedOp, y: BigradedOp) -> BigradedOp:
    """Deformed product: on homogeneous pieces x * y = lambda^(n1' n2) x y."""
    model = x.model
    comps: dict[tuple[int, int], np.ndarray] = {}
    for (n1, n2), cx in x.components.items():
        for (m1, m2), cy in y.components.items():
            deg = model.reduce_degree(n1 + m1, n2 + m2)
            term = model.lam_pow(m1 * n2) * (cx @ cy)
            if deg in comps:
                comps[deg] = comps[deg] + term
            else:
                comps[deg] = term
    return BigradedOp(model, comps)


def star_product_right(x: BigradedOp, y: BigradedOp) -> BigradedOp:
    """Right-handed variant: x *_r y = lambda^(n1 n2') x y."""
    model = x.model
    comps: dict[tuple[int, int], np.ndarray] = {}
    for (n1, n2), cx in x.components.items():
        for (m1, m2), cy in y.components.items():
            deg = model.reduce_degree(n1 + m1, n2 + m2)
            term = model.lam_pow(n1 * m2) * (cx @ cy)
            if deg in comps:
                comps[deg] = comps[deg] + term
            else:
                comps[deg] = term
    return BigradedOp(model, comps)


def _require_homogeneous(op: BigradedOp, name: str) -> tuple[int, int]:
    if len(op.components) != 1:
        raise ValueError(f"{name} must be homogeneous, has degrees {op.degrees()}")
    return next(iter(op.components))


def verify_lemma_a(x, y, model: TorusModel) -> float:
    """Max-entry residual of the twisted-commutator identity

        l(x) r(y) - r(y) l(x) = (x y - y x) lambda^(n1' n2) lambda^(n2 p1 + n1' p2)

    for homogeneous x of bidegree (n1, n2) and y of bidegree (n1', n2')."""
    bx = _as_bigraded(x, model)
    by = _as_bigraded(y, model)
    (n1, n2) = _require_homogeneous(bx, "x")
    (m1, m2) = _require_homogeneous(by, "y")
    cx = bx.components[(n1, n2)]
    cy = by.components[(m1, m2)]
    lx, ry = left_twist(bx), right_twist(by)
    lhs = lx @ ry - ry @ lx
    diag = model.lam_powers(n2 * model.p_index(1) + m1 * model.p_index(2))
    rhs = model.lam_pow(m1 * n2) * ((cx @ cy - cy @ cx) * diag[None, :])
    return float(np.max(np.abs(lhs - rhs)))


def verify_lemma_b(x, y, model: TorusModel) -> float:
    """Max-entry residual of l(x) l(y) = l(x * y) and r(x) r(y) = r(x *_r y).

    Both sides are bilinear, so non-homogeneous inputs are allowed and are
    checked componentwise through the star products.
    """
    bx = _as_bigraded(x, model)
    by = _as_bigraded(y, model)
    lhs_l = left_twist(bx) @ left_twist(by)
    rhs_l = left_twist(star_product(bx, by))
    lhs_r = right_twist(bx) @ right_twist(by)
    rhs_r = right_twist(star_product_right(bx, by))
    return float(max(np.max(np.abs(lhs_l - rhs_l)), np.max(np.abs(lhs_r - rhs_r))))


def _normalize_grading(grading, model: TorusModel):
    """Accept (g1, g2) weights or a callable; return a validated callable."""
    if grading is None:
        grading = (1, 1)
    if isinstance(grading, tuple):
        g1, g2 = int(grading[0]) % 2, int(grading[1]) % 2

        def gr(n1, n2):
            return (g1 * n1 + g2 * n2) % 2
    else:
        gr = lambda n1, n2: int(grading(n1, n2)) % 2
        g1, g2 = gr(1, 0), gr(0, 1)
    # homomorphism check over a generating window
    for a1 in range(-2, 3):
        for a2 in range(-2, 3):
            if gr(a1, a2) != (g1 * a1 + g2 * a2) % 2:
                raise GradingError("grading is not additive on bidegrees")
    if model.exact and ((g1 * model.n) % 2 or (g2 * model.n) % 2):
        raise GradingError(
            f"grading incompatible with mod-{model.n} degrees (N must be even)")
    return gr


def z2_twist_project(op: BigradedOp, grading=None, model: TorusModel | None = None) -> BigradedOp:
    """Keep the even-graded components, zero the odd ones.

    The grading must be a homomorphism Z^2 -> Z_2 on bidegrees (default:
    total parity).  The projected set is closed under the star product since
    gradings add along it.
    """
    op = _as_bigraded(op, model) if model is not None else op
    gr = _normalize_grading(grading, op.model)
    comps = {deg: comp for deg, comp in op.components.items() if gr(*deg) == 0}
    return BigradedOp(op.model, comps)


def twisted_triple_check(model: TorusModel, d_matrix: np.ndarray | None = None,
                         grading=None, tol: float = 1e-13) -> list[CheckResult]:
    """Condition checks for the twisted geometry on the cyclic model.

    Verifies, for every homogeneous component a of the two generators:
    [D, l(a)] = l([D, a]) (D torus-invariant, bidegree (0,0)); that the
    sign grading fixes D; and that even-projected operators preserve the
    even subspace of the grading unitary (-1)^(g1 p1 + g2 p2).
    """
    if d_matrix is None:
        d_matrix = model.p_matrix(1) + model.p_matrix(2)
    d_big = decompose(d_matrix, model)
    checks = []
    invariant = set(d_big.degrees()) <= {(0, 0)}
    checks.append(CheckResult("D torus-invariant", invariant,
                              f"bidegrees {d_big.degrees()}", None,
                              0.0 if invariant else 1.0))

    worst = 0.0
    for name, gen in model.generators().items():
        big = decompose(gen, model)
        for deg in big.degrees():
            comp = BigradedOp(model, {deg: big.components[deg]})
            lhs = d_matrix @ left_twist(comp) - left_twist(comp) @ d_matrix
            bracket = d_matrix @ comp.components[deg] - comp.components[deg] @ d_matrix
            rhs = left_twist(BigradedOp(model, {deg: bracket}))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(CheckResult("[D, l(a)] = l([D, a])", worst <= tol,
                              "all homogeneous generator components", tol, worst))

    gr = _normalize_grading(grading, model)
    g1, g2 = gr(1, 0), gr(0, 1)
    w_diag = np.where((g1 * model.p_index(1) + g2 * model.p_index(2)) % 2, -1.0, 1.0)
    d_flip = (w_diag[:, None] * d_matrix) * w_diag[None, :]
    d_equiv = float(np.max(np.abs(d_flip - d_matrix)))
    checks.append(CheckResult("sign flip fixes D", d_equiv == 0.0,
                              "conjugation by the grading unitary", 0.0, d_equiv))

    even_idx = w_diag > 0
    worst_leak = 0.0
    for name, gen in model.generators().items():
        proj = z2_twist_project(decompose(gen, model), grading)
        mat = left_twist(proj)
        leak = mat[np.ix_(~even_idx, even_idx)]
        worst_leak = max(worst_leak, float(np.max(np.abs(leak))) if leak.size else 0.0)
        sq = star_product(proj, proj)
        odd_left = {deg for deg in sq.degrees() if gr(*deg) != 0}
        if odd_left:
            worst_leak = max(worst_leak, 1.0)
    checks.append(CheckResult("even projection preserves even subspace", worst_leak == 0.0,
                              "projected generators and their star squares", 0.0, worst_leak))
    return checks
