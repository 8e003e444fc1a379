import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qtriple.isodeform import (
    GradingError, build_model, decompose,
    homogeneity_defect, left_twist, right_twist, star_product,
    star_product_right, twisted_triple_check, verify_lemma_a,
    verify_lemma_b, z2_twist_project,
)


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestModel:
    def test_build_modes(self):
        assert build_model(4, Fraction(1, 4)).exact
        assert build_model(6, "1/3").exact
        assert not build_model(4, 0.137).exact
        with pytest.raises(ValueError):
            build_model(4, Fraction(1, 3))  # denominator does not divide N
        with pytest.raises(ValueError):
            build_model(1, Fraction(0))

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

    def test_torus_identity_at_origin(self):
        m = build_model(3, Fraction(1, 3))
        assert np.allclose(m.u_of(0.0, 0.0), np.eye(m.dim))

    def test_shift_conjugation_scales_by_phase(self):
        m = build_model(5, Fraction(1, 5))
        s1 = 2 * np.pi / 5
        got = m.torus_conjugate(m.shift, s1, 0.0)
        assert np.max(np.abs(got - np.exp(1j * s1) * m.shift)) < 1e-12

    def test_clock_conjugation_scales_in_second_slot(self):
        m = build_model(4, Fraction(1, 4))
        s2 = 2 * np.pi * 3 / 4
        got = m.torus_conjugate(m.clock, 0.0, s2)
        assert np.max(np.abs(got - np.exp(1j * s2) * m.clock)) < 1e-12

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
        assert np.allclose(left_twist(decompose(m.shift, m)), m.shift)

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
        expected = m.clock * lam_pow[None, :]
        assert np.max(np.abs(left_twist(decompose(m.clock, m)) - expected)) < 1e-13


class TestStarProduct:
    def test_shift_clock_untwisted_order(self):
        m = build_model(4, Fraction(1, 4))
        x = decompose(m.shift, m)   # (1, 0)
        y = decompose(m.clock, m)   # (0, 1)
        assert np.allclose(star_product(x, y).to_matrix(), m.shift @ m.clock)

    def test_clock_shift_picks_up_lambda(self):
        m = build_model(4, Fraction(1, 4))
        x = decompose(m.shift, m)
        y = decompose(m.clock, m)
        got = star_product(y, x).to_matrix()
        assert np.max(np.abs(got - m.lam * (m.clock @ m.shift))) < 1e-13

    def test_associativity_on_random_homogeneous_triples(self):
        m = build_model(6, Fraction(1, 6))
        rng = np.random.default_rng(4)
        gens = [decompose(m.shift, m), decompose(m.clock, m),
                decompose(m.shift @ m.clock, m)]
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
        assert np.max(np.abs(m.shift @ phase - phase @ m.shift)) > 1.0
        assert verify_lemma_a(m.shift, phase, m) <= 1e-13
        assert verify_lemma_a(phase, m.shift, m) <= 1e-13
        assert verify_lemma_a(m.shift @ m.clock, phase, m) <= 1e-13
        assert verify_lemma_b(phase, m.shift, m) <= 1e-13

    def test_requires_homogeneous_input(self):
        m = build_model(4, Fraction(1, 4))
        with pytest.raises(ValueError):
            verify_lemma_a(m.shift + m.clock, m.shift, m)


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
            for comp_deg in decompose(gx, m).degrees():
                comp = decompose(gx, m).components[comp_deg]
                for gy in m.generators().values():
                    for deg2 in decompose(gy, m).degrees():
                        comp2 = decompose(gy, m).components[deg2]
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

    def test_non_homomorphic_grading_rejected(self):
        m = build_model(4, Fraction(1, 4))
        op = decompose(m.clock, m)
        with pytest.raises(GradingError):
            z2_twist_project(op, grading=lambda n1, n2: 1 if n1 == 1 else 0)

    def test_odd_order_cyclic_model_rejects_parity(self):
        m = build_model(3, Fraction(1, 3))
        op = decompose(m.clock, m)
        with pytest.raises(GradingError):
            z2_twist_project(op, grading=(1, 1))


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
        checks = twisted_triple_check(m, d_matrix=m.shift + m.shift.conj().T)
        by_name = {c.name: c for c in checks}
        assert not by_name["D torus-invariant"].passed
