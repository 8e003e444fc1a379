import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qtriple import isodeform
from qtriple.isodeform import (
    BigradedOp, GradingError, build_model, decompose,
    homogeneity_defect, left_twist, right_twist, star_product,
    star_product_right, twisted_triple_check, verify_lemma_a,
    verify_lemma_b, z2_twist_project,
)


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


# ---------------------------------------------------------------------------
# The dense formulas: masked full-size copies and matrix products.  They are
# the oracle for the weight-vector form of the same calculus.
# ---------------------------------------------------------------------------

def dense_components(mat, m):
    """Bidegree -> the matrix masked to that bidegree's entries."""
    a, b = np.divmod(np.arange(m.dim), m.n)
    d1 = a[:, None] - a[None, :]
    d2 = b[:, None] - b[None, :]
    if m.exact:
        d1, d2 = d1 % m.n, d2 % m.n
    degs = {(int(d1[i, j]), int(d2[i, j])) for i, j in np.argwhere(mat != 0)}
    return {deg: np.where((d1 == deg[0]) & (d2 == deg[1]), mat, 0) for deg in degs}


def dense_twist(comps, m, left):
    p = m.p_index(1 if left else 2)
    out = np.zeros((m.dim, m.dim), dtype=complex)
    for (n1, n2), c in comps.items():
        out += c * m.lam_powers((n2 if left else n1) * p)[None, :]
    return out


def dense_star(xc, yc, m, right=False):
    out = {}
    for (n1, n2), cx in xc.items():
        for (m1, m2), cy in yc.items():
            deg = m.reduce_degree(n1 + m1, n2 + m2)
            out[deg] = out.get(deg, 0) + m.lam_pow(n1 * m2 if right else m1 * n2) * (cx @ cy)
    return out


def dense_lemma_a(x, y, m):
    ((n1, n2), cx), = dense_components(x, m).items()
    ((m1, m2), cy), = dense_components(y, m).items()
    lx = dense_twist({(n1, n2): cx}, m, left=True)
    ry = dense_twist({(m1, m2): cy}, m, left=False)
    diag = m.lam_powers(n2 * m.p_index(1) + m1 * m.p_index(2))
    rhs = m.lam_pow(m1 * n2) * ((cx @ cy - cy @ cx) * diag[None, :])
    return float(np.max(np.abs(lx @ ry - ry @ lx - rhs)))


def dense_lemma_b(x, y, m):
    xc, yc = dense_components(x, m), dense_components(y, m)
    worst = 0.0
    for left in (True, False):
        lhs = dense_twist(xc, m, left) @ dense_twist(yc, m, left)
        rhs = dense_twist(dense_star(xc, yc, m, right=not left), m, left)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def dense_sum(comps, m):
    return sum(comps.values(), np.zeros((m.dim, m.dim), dtype=complex))


def phase_op(m):
    """diag(omega^p1), omega = exp(2 pi i / N): bidegree (0, 0) and
    noncommuting with the shift."""
    return BigradedOp(m, {(0, 0): np.exp(2j * np.pi * m.p_index(1) / m.n)})


class TestModel:
    def test_build_modes(self):
        assert build_model(4, Fraction(1, 4)).exact
        assert build_model(6, "1/3").exact
        assert not build_model(4, 0.137).exact
        with pytest.raises(ValueError):
            build_model(4, Fraction(1, 3))  # denominator does not divide N
        with pytest.raises(ValueError):
            build_model(1, Fraction(0))

    def test_string_theta_rule(self):
        # the CLI's rule: "p/N" is exact, any other string a float
        assert build_model(6, "1/3").theta == Fraction(1, 3)
        for text, value in (("0.3", 0.3), ("1", 1.0), ("1e-3", 1e-3)):
            m = build_model(4, text)
            assert not m.exact and m.theta == value
        assert build_model(4, 1).exact  # an int, not a string, stays exact

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, "nan", "1e400"])
    def test_non_finite_theta_refused(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            build_model(4, theta)

    def test_lam_powers_match_fraction_reference(self):
        # exact mode reduces theta * k mod 1 in rationals, so the error stays
        # at one rounding of the phase however large k grows
        m = build_model(24, Fraction(5, 24))
        k = np.arange(-2000, 2000)
        ref = [cmath.exp(2j * math.pi * float((m.theta * int(j)) % 1)) for j in k]
        assert np.max(np.abs(m.lam_powers(k) - ref)) <= 1e-15
        assert np.all(m.lam_powers(24 * k) == 1.0)
        g = build_model(24, 0.137)
        ref = [cmath.exp(2j * math.pi * 0.137 * int(j)) for j in k]
        assert np.max(np.abs(g.lam_powers(k) - ref)) <= 1e-12
        # a float theta is an exact dyadic rational, reduced mod 1 the same way
        for theta in (0.137, 0.1370000001, 0.432414):
            g = build_model(24, theta)
            ref = [cmath.exp(2j * math.pi * float((Fraction(theta) * int(j)) % 1)) for j in k]
            assert np.max(np.abs(g.lam_powers(k) - ref)) <= 1e-15

    def test_torus_identity_at_origin(self):
        m = build_model(3, Fraction(1, 3))
        assert np.allclose(m.u_of(0.0, 0.0), np.eye(m.dim))

    def test_shift_conjugation_scales_by_phase(self):
        m = build_model(5, Fraction(1, 5))
        s1 = 2 * np.pi / 5
        shift = m.shift.to_matrix()
        got = m.torus_conjugate(shift, s1, 0.0)
        assert np.max(np.abs(got - np.exp(1j * s1) * shift)) < 1e-12

    def test_clock_conjugation_scales_in_second_slot(self):
        m = build_model(4, Fraction(1, 4))
        s2 = 2 * np.pi * 3 / 4
        clock = m.clock.to_matrix()
        got = m.torus_conjugate(clock, 0.0, s2)
        assert np.max(np.abs(got - np.exp(1j * s2) * clock)) < 1e-12

    def test_p_generators_commute_with_diagonals(self):
        m = build_model(4, Fraction(1, 4))
        rng = np.random.default_rng(0)
        d = np.diag(rng.standard_normal(m.dim))
        for which in (1, 2):
            p = m.p_matrix(which)
            assert np.max(np.abs(p @ d - d @ p)) == 0.0


class TestDecompose:
    def test_identity_is_degree_zero(self):
        m = build_model(4, Fraction(1, 4))
        op = decompose(np.eye(m.dim, dtype=complex), m)
        assert op.degrees() == [(0, 0)]

    def test_shift_is_homogeneous_in_exact_mode(self):
        m = build_model(4, Fraction(1, 4))
        assert decompose(m.shift, m).degrees() == [(1, 0)]
        assert decompose(m.clock, m).degrees() == [(0, 1)]

    def test_generic_mode_splits_wraparound(self):
        m = build_model(4, 0.1)
        degs = decompose(m.shift, m).degrees()
        assert degs == [(-3, 0), (1, 0)]

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(1)
        for theta in (Fraction(1, 6), 0.2):
            m = build_model(6, theta)
            t = random_matrix(rng, m.dim)
            op = decompose(t, m)
            assert np.max(np.abs(op.to_matrix() - t)) <= 1e-12

    def test_components_certified_homogeneous(self):
        rng = np.random.default_rng(2)
        m = build_model(4, Fraction(1, 4))
        op = decompose(random_matrix(rng, m.dim), m)
        assert homogeneity_defect(op) < 1e-11


class TestTwists:
    def test_left_twist_ignores_first_degree(self):
        m = build_model(4, Fraction(1, 4))
        # bidegree (n1, 0): lambda^(0 * p1) = 1
        assert np.allclose(left_twist(decompose(m.shift, m)), m.shift.to_matrix())

    def test_theta_zero_twists_are_identity_maps(self):
        m = build_model(5, Fraction(0))
        rng = np.random.default_rng(3)
        t = random_matrix(rng, m.dim)
        assert np.array_equal(left_twist(decompose(t, m)), t)
        assert np.array_equal(right_twist(decompose(t, m)), t)

    def test_clock_twist_entrywise(self):
        # the (0,1) generator twists by the diagonal lambda^(p1) on the right
        m = build_model(4, Fraction(1, 4))
        lam_pow = np.array([m.lam_pow(int(k)) for k in m.p_diag(1)])
        expected = m.clock.to_matrix() * lam_pow[None, :]
        assert np.max(np.abs(left_twist(decompose(m.clock, m)) - expected)) < 1e-13


class TestStarProduct:
    def test_shift_clock_untwisted_order(self):
        m = build_model(4, Fraction(1, 4))
        x = decompose(m.shift, m)   # (1, 0)
        y = decompose(m.clock, m)   # (0, 1)
        assert np.allclose(star_product(x, y).to_matrix(),
                           m.shift.to_matrix() @ m.clock.to_matrix())

    def test_clock_shift_picks_up_lambda(self):
        m = build_model(4, Fraction(1, 4))
        x = decompose(m.shift, m)
        y = decompose(m.clock, m)
        got = star_product(y, x).to_matrix()
        assert np.max(np.abs(got - m.lam * (m.clock.to_matrix() @ m.shift.to_matrix()))) < 1e-13

    def test_associativity_on_random_homogeneous_triples(self):
        m = build_model(6, Fraction(1, 6))
        rng = np.random.default_rng(4)
        gens = [decompose(m.shift, m), decompose(m.clock, m),
                decompose(m.shift.to_matrix() @ m.clock.to_matrix(), m)]
        for x, y, z in itertools.product(gens, repeat=3):
            lhs = star_product(star_product(x, y), z).to_matrix()
            rhs = star_product(x, star_product(y, z)).to_matrix()
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_right_star_supports_right_twist(self):
        m = build_model(4, Fraction(1, 4))
        x = decompose(m.clock, m)
        y = decompose(m.shift, m)
        lhs = right_twist(x) @ right_twist(y)
        rhs = right_twist(star_product_right(x, y))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestLemmaA:
    def test_commuting_diagonals_give_zero(self):
        m = build_model(4, Fraction(1, 4))
        d1 = decompose(np.diag(np.arange(m.dim, dtype=complex)), m)
        d2 = decompose(np.diag(np.arange(m.dim, dtype=complex) ** 2), m)
        lx, ry = left_twist(d1), right_twist(d2)
        assert np.max(np.abs(lx @ ry - ry @ lx)) == 0.0
        assert verify_lemma_a(d1, d2, m) < 1e-13

    def test_clock_shift_n4(self):
        m = build_model(4, Fraction(1, 4))
        assert verify_lemma_a(m.clock, m.shift, m) <= 1e-13

    def test_equal_arguments_both_sides_vanish(self):
        m = build_model(4, Fraction(1, 4))
        x = decompose(m.shift, m)
        lx, rx = left_twist(x), right_twist(x)
        assert np.max(np.abs(lx @ rx - rx @ lx)) < 1e-13
        assert verify_lemma_a(x, x, m) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
    def test_exhaustive_generator_pairs(self, n):
        m = build_model(n, Fraction(1, n))
        gens = list(m.generators().values())
        for x in gens:
            for y in gens:
                assert verify_lemma_a(x, y, m) <= 1e-13

    def test_noncommuting_pair_nonzero_right_side(self):
        # shift and clock commute as matrices, so the generator pairs only
        # see a vanishing right side; a phase diagonal on the first factor
        # is homogeneous of bidegree (0, 0) and genuinely noncommuting
        m = build_model(4, Fraction(1, 4))
        omega = np.exp(2j * np.pi / 4)
        phase = np.kron(np.diag(omega ** np.arange(4)), np.eye(4))
        shift = m.shift.to_matrix()
        assert np.max(np.abs(shift @ phase - phase @ shift)) > 1.0
        assert verify_lemma_a(shift, phase, m) <= 1e-13
        assert verify_lemma_a(phase, shift, m) <= 1e-13
        assert verify_lemma_a(shift @ m.clock.to_matrix(), phase, m) <= 1e-13
        assert verify_lemma_b(phase, shift, m) <= 1e-13

    def test_requires_homogeneous_input(self):
        m = build_model(4, Fraction(1, 4))
        with pytest.raises(ValueError):
            verify_lemma_a(m.shift.to_matrix() + m.clock.to_matrix(), m.shift, m)


class TestLemmaB:
    def test_theta_zero_degenerates(self):
        m = build_model(4, Fraction(0))
        rng = np.random.default_rng(5)
        x, y = random_matrix(rng, m.dim), random_matrix(rng, m.dim)
        assert verify_lemma_b(x, y, m) < 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
    def test_exhaustive_generator_pairs(self, n):
        m = build_model(n, Fraction(1, n))
        gens = list(m.generators().values())
        for x in gens:
            for y in gens:
                assert verify_lemma_b(x, y, m) <= 1e-13

    def test_bilinear_extension_on_random_operators(self):
        rng = np.random.default_rng(6)
        for theta in (Fraction(1, 6), Fraction(5, 6)):
            m = build_model(6, theta)
            x, y = random_matrix(rng, m.dim), random_matrix(rng, m.dim)
            assert verify_lemma_b(x, y, m) <= 1e-12

    def test_generic_theta_uses_integer_bidegrees(self):
        # at irrational-like theta the wraparound band is its own component,
        # which keeps both lemmas exact; mod-N degrees would be off by
        # order |lambda^N - 1|
        rng = np.random.default_rng(8)
        m = build_model(5, 0.1370000001)
        x, y = random_matrix(rng, m.dim), random_matrix(rng, m.dim)
        assert verify_lemma_b(x, y, m) <= 1e-12
        for gx in m.generators().values():
            for comp in gx.parts():
                for gy in m.generators().values():
                    for comp2 in gy.parts():
                        assert verify_lemma_a(comp, comp2, m) <= 1e-12


class TestZ2Projection:
    def test_clock_is_odd_under_total_parity(self):
        m = build_model(4, Fraction(1, 4))
        proj = z2_twist_project(decompose(m.clock, m))
        assert proj.degrees() == []

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        m = build_model(4, Fraction(1, 4))
        op = decompose(random_matrix(rng, m.dim), m)
        once = z2_twist_project(op)
        twice = z2_twist_project(once)
        assert once.degrees() == twice.degrees()
        assert np.allclose(once.to_matrix(), twice.to_matrix())

    def test_star_closure_of_even_part_exhaustive_n4(self):
        m = build_model(4, Fraction(1, 4))
        gens = [decompose(g, m) for g in m.generators().values()]
        pool = gens + [star_product(x, y) for x in gens for y in gens]
        evens = [z2_twist_project(op) for op in pool]
        for x in evens:
            for y in evens:
                prod = star_product(x, y)
                assert all((n1 + n2) % 2 == 0 for (n1, n2) in prod.degrees())

    def test_odd_order_cyclic_model_rejects_parity(self):
        m = build_model(3, Fraction(1, 3))
        op = decompose(m.clock, m)
        with pytest.raises(GradingError):
            z2_twist_project(op)


class TestTwistedTriple:
    def test_zero_dirac_trivially_passes(self):
        m = build_model(4, Fraction(1, 4))
        checks = twisted_triple_check(m, d_matrix=np.zeros((m.dim, m.dim), dtype=complex))
        assert all(c.passed for c in checks)

    def test_default_dirac_p1_plus_p2(self):
        m = build_model(4, Fraction(1, 4))
        checks = twisted_triple_check(m)
        by_name = {c.name: c for c in checks}
        assert by_name["[D, l(a)] = l([D, a])"].value <= 1e-13
        assert all(c.passed for c in checks)

    def test_degree_zero_operator_twists_trivially(self):
        m = build_model(4, Fraction(1, 4))
        a = np.diag(np.exp(2j * np.pi * np.arange(m.dim) / m.dim))
        op = decompose(a, m)
        assert op.degrees() == [(0, 0)]
        assert np.allclose(left_twist(op), a)

    def test_non_invariant_dirac_flagged(self):
        m = build_model(4, Fraction(1, 4))
        shift = m.shift.to_matrix()
        checks = twisted_triple_check(m, d_matrix=shift + shift.conj().T)
        by_name = {c.name: c for c in checks}
        assert not by_name["D torus-invariant"].passed


ORACLE_MODELS = [(n, Fraction(1, n)) for n in (2, 3, 4, 6, 12)] + [(5, 0.1370000001)]


def oracle_inputs(m, rng):
    """The generators and the phase diagonal as dense matrices, plus one
    random dense matrix; when it has more than 16 bidegrees it keeps 8
    random ones, which bounds the cost of the pairwise star products."""
    ops = [g.to_matrix() for g in (*m.generators().values(), phase_op(m))]
    t = random_matrix(rng, m.dim)
    comps = dense_components(t, m)
    if len(comps) > 16:
        degs = sorted(comps)
        t = sum(comps[degs[i]] for i in rng.choice(len(degs), 8, replace=False))
    return ops + [t]


class TestDenseOracle:
    """The weight-vector form against the dense formulas it replaces."""

    @pytest.mark.parametrize("n, theta", ORACLE_MODELS)
    def test_decompose_twists_and_star_products(self, n, theta):
        m = build_model(n, theta)
        ops = oracle_inputs(m, np.random.default_rng(n))
        for x in ops:
            comps = dense_components(x, m)
            big = decompose(x, m)
            assert big.degrees() == sorted(comps)
            for deg, part in zip(big.degrees(), big.parts()):
                assert np.array_equal(part.to_matrix(), comps[deg])
            for left, twist in ((True, left_twist), (False, right_twist)):
                assert np.max(np.abs(twist(big) - dense_twist(comps, m, left))) <= 1e-13
        for x, y in itertools.product(ops, repeat=2):
            xc, yc = dense_components(x, m), dense_components(y, m)
            bx, by = decompose(x, m), decompose(y, m)
            for right, star in ((False, star_product), (True, star_product_right)):
                want = dense_sum(dense_star(xc, yc, m, right), m)
                assert np.max(np.abs(star(bx, by).to_matrix() - want)) <= 1e-13

    @pytest.mark.parametrize("n, theta", ORACLE_MODELS)
    def test_lemma_residuals(self, n, theta):
        m = build_model(n, theta)
        rng = np.random.default_rng(100 + n)
        ops = oracle_inputs(m, rng)
        for x, y in itertools.product(ops, repeat=2):
            assert abs(verify_lemma_b(x, y, m) - dense_lemma_b(x, y, m)) <= 1e-13
        parts = [p.to_matrix() for x in ops for p in decompose(x, m).parts()]
        pairs = list(itertools.product(range(len(parts)), repeat=2))
        for i in rng.choice(len(pairs), min(len(pairs), 60), replace=False):
            x, y = parts[pairs[i][0]], parts[pairs[i][1]]
            assert abs(verify_lemma_a(x, y, m) - dense_lemma_a(x, y, m)) <= 1e-13


MUTATION_MODELS = [build_model(4, Fraction(1, 4)), build_model(5, 0.1370000001)]


def lemma_residuals(m):
    """Worst lemma A residual over homogeneous component pairs and worst
    lemma B residual over operator pairs, for shift, clock and the phase."""
    ops = [*m.generators().values(), phase_op(m)]
    worst_a = max(verify_lemma_a(cx, cy, m) for x in ops for y in ops
                  for cx in x.parts() for cy in y.parts())
    worst_b = max(verify_lemma_b(x, y, m) for x in ops for y in ops)
    return worst_a, worst_b


class TestMutations:
    """A wrong exponent in a twist or in the star product fails a lemma."""

    @pytest.mark.parametrize("m", MUTATION_MODELS, ids=["exact", "generic"])
    def test_sound_calculus_passes(self, m):
        assert max(lemma_residuals(m)) <= 1e-13

    @pytest.mark.parametrize("m", MUTATION_MODELS, ids=["exact", "generic"])
    def test_wrong_twist_exponent_fails(self, monkeypatch, m):
        def wrong_twist(op, left):
            # the left twist takes n1 where it needs n2
            mo = op.model
            return BigradedOp(mo, {deg: w * (mo.phases(deg[0], 0) if left else mo.phases(0, deg[0]))
                                   for deg, w in op.components.items()})

        monkeypatch.setattr(isodeform, "_twist", wrong_twist)
        assert max(lemma_residuals(m)) > 1e-13

    @pytest.mark.parametrize("m", MUTATION_MODELS, ids=["exact", "generic"])
    def test_wrong_star_exponent_fails(self, monkeypatch, m):
        # the left star product takes the right variant's exponent n1 n2'
        monkeypatch.setattr(isodeform, "star_product",
                            lambda x, y: isodeform._star(x, y, lambda n, k: n[0] * k[1]))
        assert max(lemma_residuals(m)) > 1e-13
