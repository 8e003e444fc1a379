"""Twist calculus on a finite bigraded operator model of the 2-torus action.

The Hilbert space is C^N (x) C^N with commuting "position" generators
p1 = P (x) 1, p2 = 1 (x) P, P = diag(0..N-1), and the two-parameter unitary
group U(s) = exp(i(s1 p1 + s2 p2)).  An operator is homogeneous of bidegree
(n1, n2) when conjugation by U(s) scales it by exp(i(s1 n1 + s2 n2)); entry
((a,b),(c,d)) of a matrix has bidegree (a-c, b-d), so every operator splits
into finitely many homogeneous components.

A homogeneous component is a weighted partial permutation, so it is held as
its bidegree plus one weight vector over the source basis indices: the
component of bidegree (n1, n2) with weights w sends e_(c,d) to
w[(c,d)] e_(c+n1, d+n2).

Two modes:

* exact (cyclic) mode: theta = p/N rational with denominator dividing N, so
  lambda = exp(2 pi i theta) satisfies lambda^N = 1 and bidegrees live
  mod N; targets wrap, (c, d) -> ((c+n1) mod N, (d+n2) mod N).  The cyclic
  shifts V (x) 1 (bidegree (1,0), the "shift") and 1 (x) V (bidegree (0,1),
  the "clock" direction) are exactly homogeneous and every twist identity
  below holds to float roundoff.
* generic mode: arbitrary finite real theta; bidegrees are kept as plain integers,
  (c, d) -> (c+n1, d+n2) with weight 0 where the target leaves the window
  (the wraparound band of a cyclic shift is then its own component), which
  again makes the identities exact rather than approximate.

Left/right twists insert diagonal lambda powers,

    l(T) = sum T_{n1,n2} lambda^(n2 p1),     r(T) = sum T_{n1,n2} lambda^(n1 p2),

and the deformed product of homogeneous x, y is x * y = lambda^(n1' n2) x y
(right variant x *_r y = lambda^(n1 n2') x y), extended bilinearly.

On the weight vectors a twist is an elementwise phase scaling, and the
product of two components is one gather-and-multiply whose bidegree is the
sum, so the lemma checks cost O(N^2) per pair of components.  Dense
matrices are formed only by `BigradedOp.to_matrix` and read only by
`decompose`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .report import CheckResult

__all__ = [
    "TorusModel", "BigradedOp", "GradingError", "build_model", "decompose",
    "left_twist", "right_twist", "star_product", "star_product_right",
    "verify_lemma_a", "verify_lemma_b", "z2_twist_project",
    "twisted_triple_check", "homogeneity_defect",
]


class GradingError(ValueError):
    """Total parity is not defined on the mod-N bidegrees of an odd-N model."""


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
        elif not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")

    @property
    def dim(self) -> int:
        return self.n * self.n

    @property
    def lam(self) -> complex:
        return cmath.exp(2j * math.pi * float(self.theta))

    @cached_property
    def _ratio(self) -> tuple[int, int]:
        """theta as p/d exactly (a float is a dyadic rational)."""
        return self.theta.as_integer_ratio()

    def _turns(self, k: int) -> float:
        """theta k mod 1, reduced in integers so that the phase error never
        grows with k."""
        p, d = self._ratio
        return (p * k) % d / d

    def lam_pow(self, k: int) -> complex:
        return complex(np.exp(2j * np.pi * self._turns(int(k))))

    def lam_powers(self, k) -> np.ndarray:
        """lambda^k elementwise for an integer exponent array (the reduction
        of `_turns`, inlined over the distinct exponents)."""
        k = np.asarray(k, dtype=np.int64)
        ks, which = np.unique(k.ravel(), return_inverse=True)
        p, d = self._ratio
        turns = np.array([(p * j) % d / d for j in ks.tolist()])
        return np.exp(2j * np.pi * turns)[which].reshape(k.shape)

    @lru_cache(maxsize=64)
    def phases(self, k1: int, k2: int) -> np.ndarray:
        """lambda^(k1 p1 + k2 p2) over the basis (read-only; the twists
        and lemma A reuse the same few vectors)."""
        out = self.lam_powers(k1 * self.p_index(1) + k2 * self.p_index(2))
        out.setflags(write=False)
        return out

    @cached_property
    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        a, b = np.divmod(np.arange(self.dim), self.n)
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b

    def p_index(self, which: int) -> np.ndarray:
        """Integer eigenvalues of p1 (which=1) or p2 (which=2), basis order (a, b)."""
        return self._coords[0 if which == 1 else 1]

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

    @lru_cache(maxsize=64)
    def targets(self, n1: int, n2: int) -> np.ndarray:
        """Target index of each source under bidegree (n1, n2); -1 where it
        leaves the window (generic mode only).  Read-only."""
        c, d = self._coords
        c, d = c + n1, d + n2
        if self.exact:
            out = (c % self.n) * self.n + d % self.n
        else:
            inside = (c >= 0) & (c < self.n) & (d >= 0) & (d < self.n)
            out = np.where(inside, c * self.n + d, -1)
        out.setflags(write=False)
        return out

    def _cyclic_shift(self, which: int) -> BigradedOp:
        """V on factor 1 or 2, e_c -> e_(c+1 mod N); in generic mode the
        wraparound band c = N-1 is its own component of degree 1 - N."""
        step = (1, 0) if which == 1 else (0, 1)
        if self.exact:
            return BigradedOp(self, {step: np.ones(self.dim, dtype=complex)})
        last = self.p_index(which) == self.n - 1
        wrap = (1 - self.n, 0) if which == 1 else (0, 1 - self.n)
        return BigradedOp(self, {step: (~last).astype(complex), wrap: last.astype(complex)})

    @property
    def shift(self) -> BigradedOp:
        """Cyclic shift on the first factor; homogeneous of bidegree (1, 0) mod N."""
        return self._cyclic_shift(1)

    @property
    def clock(self) -> BigradedOp:
        """Cyclic shift on the second factor; the bidegree (0, 1) direction."""
        return self._cyclic_shift(2)

    def generators(self) -> dict[str, BigradedOp]:
        return {"shift": self.shift, "clock": self.clock}

    def reduce_degree(self, n1: int, n2: int) -> tuple[int, int]:
        if self.exact:
            return (n1 % self.n, n2 % self.n)
        return (n1, n2)


def build_model(n: int, theta) -> TorusModel:
    """Construct the model; a Fraction or int theta selects exact mode, a
    float the generic mode.  A string follows the CLI's rule: "p/N" is an
    exact Fraction, anything else ("0.3", and "1" too) a float."""
    if isinstance(theta, str):
        theta = Fraction(theta) if "/" in theta else float(theta)
    if isinstance(theta, int):
        theta = Fraction(theta)
    if isinstance(theta, Fraction):
        return TorusModel(n, theta, exact=True)
    return TorusModel(n, float(theta), exact=False)


def _gather(w: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """w at each target index, 0 where the target leaves the window."""
    return np.where(tgt >= 0, w[tgt], 0)


@dataclass
class BigradedOp:
    """Finite sum of homogeneous components: bidegree -> weight vector over sources."""

    model: TorusModel
    components: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def to_matrix(self) -> np.ndarray:
        m = self.model
        out = np.zeros((m.dim, m.dim), dtype=complex)
        src = np.arange(m.dim)
        for deg, w in self.components.items():
            tgt = m.targets(*deg)
            keep = tgt >= 0
            out[tgt[keep], src[keep]] += w[keep]
        return out

    def degrees(self) -> list[tuple[int, int]]:
        return sorted(self.components.keys())

    def parts(self) -> list[BigradedOp]:
        """Each homogeneous component as an operator of its own, by degree."""
        return [BigradedOp(self.model, {deg: self.components[deg]}) for deg in self.degrees()]


def decompose(op, model: TorusModel) -> BigradedOp:
    """Split an operator into homogeneous components; a BigradedOp is
    returned as it is.

    Entry ((a,b),(c,d)) of a matrix carries bidegree (a-c, b-d); in exact
    mode the degrees are reduced mod N, which coincides with the discrete
    Fourier average of s -> U(s) T U(s)^-1 over the N x N torus grid (the
    grid only resolves degrees mod N).  Reconstruction is exact: the
    components partition the entries.
    """
    if isinstance(op, BigradedOp):
        return op
    mat = np.asarray(op, dtype=complex)
    if mat.shape != (model.dim, model.dim):
        raise ValueError(f"matrix must be {model.dim} x {model.dim}")
    rows, cols = np.nonzero(mat)
    d1 = rows // model.n - cols // model.n
    d2 = rows % model.n - cols % model.n
    if model.exact:
        d1, d2 = d1 % model.n, d2 % model.n
    degs, which = np.unique(np.stack([d1, d2]), axis=1, return_inverse=True)
    weights = np.zeros((degs.shape[1], model.dim), dtype=complex)
    weights[which.ravel(), cols] = mat[rows, cols]
    return BigradedOp(model, {(int(n1), int(n2)): w for (n1, n2), w in zip(degs.T, weights)})


def homogeneity_defect(op: BigradedOp) -> float:
    """Worst defect of U(s) C U(s)^-1 = exp(i(s1 n1 + s2 n2)) C over the grid,
    checked on the dense matrix of each component."""
    model = op.model
    comps = {deg: BigradedOp(model, {deg: w}).to_matrix() for deg, w in op.components.items()}
    worst = 0.0
    for (j, k) in ((0, 1), (1, 0), (1, 1), (model.n - 1, 1)):
        s1 = 2 * math.pi * j / model.n
        s2 = 2 * math.pi * k / model.n
        for (n1, n2), comp in comps.items():
            expected = cmath.exp(1j * (s1 * n1 + s2 * n2)) * comp
            got = model.torus_conjugate(comp, s1, s2)
            worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


def _twist(op: BigradedOp, left: bool) -> BigradedOp:
    """l(T) or r(T): component (n1, n2) times lambda^(n2 p1) or lambda^(n1 p2)."""
    m = op.model
    return BigradedOp(m, {deg: w * (m.phases(deg[1], 0) if left else m.phases(0, deg[0]))
                          for deg, w in op.components.items()})


def left_twist(op, model: TorusModel | None = None) -> np.ndarray:
    """l(T) as a matrix: each (n1, n2) component multiplied on the right by lambda^(n2 p1)."""
    return _twist(decompose(op, model), left=True).to_matrix()


def right_twist(op, model: TorusModel | None = None) -> np.ndarray:
    """r(T) as a matrix: each (n1, n2) component multiplied on the right by lambda^(n1 p2)."""
    return _twist(decompose(op, model), left=False).to_matrix()


def _star(x: BigradedOp, y: BigradedOp, exponent=None) -> BigradedOp:
    """sum over component pairs of lambda^exponent(n, m) x_n y_m; without
    an exponent, the plain operator product."""
    model = x.model
    comps: dict[tuple[int, int], np.ndarray] = {}
    ys = [(m, wy, model.targets(*m)) for m, wy in y.components.items()]
    for n, wx in x.components.items():
        for m, wy, tgt in ys:
            deg = model.reduce_degree(n[0] + m[0], n[1] + m[1])
            term = _gather(wx, tgt) * wy
            if exponent is not None:
                term = model.lam_pow(exponent(n, m)) * term
            comps[deg] = comps[deg] + term if deg in comps else term
    return BigradedOp(model, comps)


def star_product(x: BigradedOp, y: BigradedOp) -> BigradedOp:
    """Deformed product: on homogeneous pieces x * y = lambda^(n1' n2) x y."""
    return _star(x, y, lambda n, m: m[0] * n[1])


def star_product_right(x: BigradedOp, y: BigradedOp) -> BigradedOp:
    """Right-handed variant: x *_r y = lambda^(n1 n2') x y."""
    return _star(x, y, lambda n, m: n[0] * m[1])


def _commutator(x: BigradedOp, y: BigradedOp) -> BigradedOp:
    xy, yx = _star(x, y), _star(y, x)
    return BigradedOp(x.model, {deg: xy.components.get(deg, 0) - yx.components.get(deg, 0)
                                for deg in xy.components.keys() | yx.components.keys()})


def _max_gap(a: BigradedOp, b: BigradedOp) -> float:
    """Largest entry modulus of a - b.  Components of distinct (reduced)
    bidegrees never share a matrix entry, so this is the dense max-entry."""
    gaps = (np.max(np.abs(a.components.get(deg, 0) - b.components.get(deg, 0)), initial=0.0)
            for deg in a.components.keys() | b.components.keys())
    return float(max(gaps, default=0.0))


def _require_homogeneous(op: BigradedOp, name: str) -> tuple[int, int]:
    if len(op.components) != 1:
        raise ValueError(f"{name} must be homogeneous, has degrees {op.degrees()}")
    return next(iter(op.components))


def verify_lemma_a(x, y, model: TorusModel) -> float:
    """Max-entry residual of the twisted-commutator identity

        l(x) r(y) - r(y) l(x) = (x y - y x) lambda^(n1' n2) lambda^(n2 p1 + n1' p2)

    for homogeneous x of bidegree (n1, n2) and y of bidegree (n1', n2')."""
    bx = decompose(x, model)
    by = decompose(y, model)
    (n1, n2) = _require_homogeneous(bx, "x")
    (m1, m2) = _require_homogeneous(by, "y")
    lhs = _commutator(_twist(bx, left=True), _twist(by, left=False))
    phase = model.lam_pow(m1 * n2)
    diag = model.phases(n2, m1)
    rhs = {deg: phase * (w * diag) for deg, w in _commutator(bx, by).components.items()}
    return _max_gap(lhs, BigradedOp(model, rhs))


def verify_lemma_b(x, y, model: TorusModel) -> float:
    """Max-entry residual of l(x) l(y) = l(x * y) and r(x) r(y) = r(x *_r y).

    Both sides are bilinear, so non-homogeneous inputs are allowed and are
    checked componentwise through the star products.
    """
    bx = decompose(x, model)
    by = decompose(y, model)
    worst = 0.0
    for left, star in ((True, star_product), (False, star_product_right)):
        lhs = _star(_twist(bx, left), _twist(by, left))
        worst = max(worst, _max_gap(lhs, _twist(star(bx, by), left)))
    return worst


def _require_parity(model: TorusModel) -> None:
    """Refuse an exact model of odd order: there n1 + n2 mod N has no parity."""
    if model.exact and model.n % 2:
        raise GradingError(
            f"grading incompatible with mod-{model.n} degrees (N must be even)")


def z2_twist_project(op: BigradedOp, model: TorusModel | None = None) -> BigradedOp:
    """Keep the components of even total parity (n1 + n2) mod 2, zero the odd
    ones.  The projected set is closed under the star product since
    bidegrees add along it."""
    op = decompose(op, model)
    _require_parity(op.model)
    comps = {deg: comp for deg, comp in op.components.items() if sum(deg) % 2 == 0}
    return BigradedOp(op.model, comps)


def twisted_triple_check(model: TorusModel, d_matrix=None,
                         tol: float = 1e-13) -> list[CheckResult]:
    """Condition checks for the twisted geometry on the cyclic model.

    Verifies, for every homogeneous component a of the two generators:
    [D, l(a)] = l([D, a]) (D torus-invariant, bidegree (0,0)); that the
    sign grading fixes D; and that even-projected operators preserve the
    even subspace of the grading unitary (-1)^(p1 + p2).  D defaults
    to p1 + p2; a dense or bigraded D may be supplied.
    """
    if d_matrix is None:
        d_big = BigradedOp(model, {(0, 0): (model.p_diag(1) + model.p_diag(2)).astype(complex)})
    else:
        d_big = decompose(d_matrix, model)
    checks = []
    invariant = set(d_big.degrees()) <= {(0, 0)}
    checks.append(CheckResult("D torus-invariant", invariant,
                              f"bidegrees {d_big.degrees()}", None,
                              0.0 if invariant else 1.0))

    if invariant:
        # [D, c] for diagonal D is (D at target - D at source) x weight:
        # no product of D with c is formed, so nothing cancels as |D| grows
        d = d_big.components.get((0, 0), np.zeros(model.dim))

        def bracket(op):
            return BigradedOp(model, {deg: (_gather(d, model.targets(*deg)) - d) * w
                                      for deg, w in op.components.items()})
    else:
        def bracket(op):
            return _commutator(d_big, op)
    worst = 0.0
    for gen in model.generators().values():
        for comp in gen.parts():
            lhs = bracket(_twist(comp, left=True))
            rhs = _twist(bracket(comp), left=True)
            worst = max(worst, _max_gap(lhs, rhs))
    checks.append(CheckResult("[D, l(a)] = l([D, a])", worst <= tol,
                              "all homogeneous generator components", tol, worst))

    _require_parity(model)
    w_diag = np.where((model.p_index(1) + model.p_index(2)) % 2, -1.0, 1.0)
    d_equiv = 0.0
    for deg, w in d_big.components.items():
        flipped = (_gather(w_diag, model.targets(*deg)) * w) * w_diag
        d_equiv = max(d_equiv, float(np.max(np.abs(flipped - w))))
    checks.append(CheckResult("sign flip fixes D", d_equiv == 0.0,
                              "conjugation by the grading unitary", 0.0, d_equiv))

    worst_leak = 0.0
    for gen in model.generators().values():
        proj = z2_twist_project(gen)
        for deg, w in _twist(proj, left=True).components.items():
            # entries from an even source to an odd target
            leaks = (w_diag > 0) & (_gather(w_diag, model.targets(*deg)) < 0)
            worst_leak = max(worst_leak, float(np.max(np.abs(w[leaks]), initial=0.0)))
        sq = star_product(proj, proj)
        odd_left = {deg for deg in sq.degrees() if sum(deg) % 2}
        if odd_left:
            worst_leak = max(worst_leak, 1.0)
    checks.append(CheckResult("even projection preserves even subspace", worst_leak == 0.0,
                              "projected generators and their star squares", 0.0, worst_leak))
    return checks
