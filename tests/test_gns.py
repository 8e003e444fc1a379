import math
import random

import numpy as np
import pytest

from qtriple import gns
from qtriple.grammar import parse
from qtriple.ncpoly import (
    BETA,
    CanonicalMonomial, NCPolynomial, QParam,
    adjoint, monomials_up_to, mul, random_polynomial,
)
from qtriple.gns import (
    GNSBasis, GNSVector, HalfInt, basis_orthonormality_defect, charge_of,
    gns_inner, gram_schmidt_basis, haar_exact, haar_numeric, halfint,
    little_jacobi, sector_labels, sector_of_label, t_matrix,
)
from qtriple.rep import TruncationSpec
from qtriple.ncpoly import normalize, Word

# q values at which the expanded route keeps its digits on moderate sectors
MODERATE_Q = (0.3, 0.5, 0.9)


def mono(qp, a, b, bs, c=1.0):
    return NCPolynomial.monomial(qp, CanonicalMonomial(a, b, bs), c)


def expanded_inner(u, v):
    """h(u* v) through the whole product adjoint(u) v: the oracle for the
    charge-blocked pairing.  Exact in exact arithmetic, but its alpha
    contractions cancel in deep sectors, so compare on moderate ones."""
    pu = u.poly if isinstance(u, GNSVector) else u
    pv = v.poly if isinstance(v, GNSVector) else v
    return haar_exact(mul(adjoint(pu), pv))


def pairing_gap(qp, n_pairs=100):
    """Worst |gns_inner - expanded route| over random pairs of degree <= 3,
    relative to the Cauchy-Schwarz scale sqrt(<u,u> <v,v>) of the oracle."""
    rng = random.Random(17)
    worst = 0.0
    for _ in range(n_pairs):
        u = random_polynomial(rng, qp, max_degree=3, n_terms=4)
        v = random_polynomial(rng, qp, max_degree=3, n_terms=4)
        scale = math.sqrt(expanded_inner(u, u).real * expanded_inner(v, v).real)
        worst = max(worst, abs(gns_inner(u, v) - expanded_inner(u, v)) / scale)
    return worst


class TestHalfInt:
    def test_representation(self):
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"
        assert HalfInt(4).is_integer and not HalfInt(3).is_integer

    def test_coercion(self):
        assert halfint(2) == HalfInt(4)
        assert halfint(1.5) == HalfInt(3)
        assert halfint(HalfInt(1)) == HalfInt(1)
        with pytest.raises(ValueError):
            halfint(0.3)

    def test_arithmetic(self):
        assert HalfInt(3) + HalfInt(1) == HalfInt(4)
        assert (HalfInt(3) - 1).twice == 1


class TestHaarExact:
    def test_normalized_state(self, qp):
        assert haar_exact(NCPolynomial.one(qp)) == 1.0

    def test_bb_star_value(self, qp):
        q = qp.q
        expected = (1 - q * q) / (1 - q ** 4)
        assert haar_exact(parse("b b'", qp)) == pytest.approx(expected, abs=1e-15)

    def test_alpha_vanishes_against_numeric_oracle(self, qp):
        # the closed form says 0; the truncated diagonal sum must agree
        t = TruncationSpec(16, 8)
        a = parse("a", qp)
        assert haar_exact(a) == 0.0
        assert haar_numeric(a, t) == 0.0

    def test_geometric_series_oracle(self, qp_any):
        # independent oracle: h((bb*)^n) is the Jackson geometric sum
        q = qp_any.q
        for n in range(7):
            p = mono(qp_any, 0, n, n)
            series = (1 - q * q) / (1 - q ** (2 * (n + 1)))
            assert abs(haar_exact(p) - series) <= 1e-14

    def test_hermitian_symmetry(self, qp):
        rng = random.Random(3)
        for _ in range(25):
            x = random_polynomial(rng, qp, max_degree=5, n_terms=5)
            assert haar_exact(adjoint(x)) == pytest.approx(haar_exact(x).conjugate(), abs=1e-12)

    def test_positivity(self, qp):
        rng = random.Random(5)
        for _ in range(100):
            x = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            val = haar_exact(mul(adjoint(x), x))
            assert val.real >= -1e-12 and abs(val.imag) < 1e-12

    def test_classical_limit_not_wired_through_state(self):
        # q = 1 degenerates the closed form to 0/0; refuse instead of NaN
        from qtriple.ncpoly import QParam
        qp1 = QParam(1.0, classical=True)
        with pytest.raises(ValueError):
            haar_exact(NCPolynomial.one(qp1))


class TestHaarNumeric:
    def test_unit_truncated_geometric_sum(self, qp):
        t = TruncationSpec(16, 8)
        expected = 1.0 - qp.q ** (2 * t.fock_dim)
        assert haar_numeric(NCPolynomial.one(qp), t) == pytest.approx(expected, abs=1e-15)

    def test_beta_exactly_zero(self, qp):
        t = TruncationSpec(8, 4)
        assert haar_numeric(parse("b", qp), t) == 0.0

    def test_bb_star_tail_bound(self, qp):
        t = TruncationSpec(16, 8)
        p = parse("b b'", qp)
        assert abs(haar_exact(p) - haar_numeric(p, t)) <= 2 * qp.q ** (4 * t.fock_dim)

    def test_agreement_all_monomials_degree6(self, qp_any):
        # the tail bound 10 q^(2 N_F) drops below double resolution for
        # q < 0.49 (8e-25 at q = 0.3), so floor it at machine precision
        t = TruncationSpec(24, 8)
        tol = max(10.0 * qp_any.q ** (2 * t.fock_dim), 1e-15)
        for m in monomials_up_to(6):
            p = NCPolynomial.monomial(qp_any, m)
            assert abs(haar_exact(p) - haar_numeric(p, t)) <= tol


class TestInnerProduct:
    def test_unit_norm(self, qp):
        one = NCPolynomial.one(qp)
        assert gns_inner(one, one) == 1.0

    def test_charge_mismatch_exact_zero(self, qp):
        assert gns_inner(parse("a", qp), parse("b", qp)) == 0.0

    def test_beta_norm(self, qp):
        q = qp.q
        expected = (1 - q * q) / (1 - q ** 4)
        assert gns_inner(parse("b", qp), parse("b", qp)) == pytest.approx(expected, abs=1e-15)

    def test_degree_cap_applies_to_the_pair(self):
        from qtriple.ncpoly import DegreeOverflowError
        qp = QParam(0.5, max_degree=5)
        u, v = parse("a^2 b", qp), parse("a b b'", qp)
        assert gns_inner(u, parse("a b", qp)) == gns_inner(u, parse("a b", qp))
        with pytest.raises(DegreeOverflowError):
            gns_inner(u, v)

    def test_sesquilinear(self, qp):
        rng = random.Random(7)
        x = random_polynomial(rng, qp, max_degree=3, n_terms=3)
        y = random_polynomial(rng, qp, max_degree=3, n_terms=3)
        c = 1.5 - 0.5j
        assert gns_inner(c * x, y) == pytest.approx(c.conjugate() * gns_inner(x, y), abs=1e-12)
        assert gns_inner(x, c * y) == pytest.approx(c * gns_inner(x, y), abs=1e-12)


class TestCharges:
    def test_examples(self):
        assert charge_of(CanonicalMonomial(1, 1, 0)) == (1, 1)
        assert charge_of(CanonicalMonomial(0, 0, 1)) == (0, -1)

    def test_rewrite_rules_charge_homogeneous(self, qp):
        # both sides of every rule carry the same bigrading
        pairs = [
            ((2, 0), None), ((3, 0), None), ((2, 1), None), ((3, 1), None),
            ((1, 0), None), ((0, 1), None), ((3, 2), None),
        ]
        for (l1, l2), _ in pairs:
            word = Word((l1, l2))
            out = normalize(word, qp)
            gen_charge = {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1)}
            total = (gen_charge[l1][0] + gen_charge[l2][0],
                     gen_charge[l1][1] + gen_charge[l2][1])
            for m in out.terms:
                assert charge_of(m) == total

    def test_cross_sector_orthogonality_exact(self, qp):
        rng = random.Random(11)
        sectors = {}
        for m in monomials_up_to(4):
            sectors.setdefault(charge_of(m), []).append(m)
        keys = sorted(sectors)[:6]
        for i, ki in enumerate(keys):
            for kj in keys[i + 1:]:
                u = NCPolynomial.monomial(qp, rng.choice(sectors[ki]))
                v = NCPolynomial.monomial(qp, rng.choice(sectors[kj]))
                assert gns_inner(u, v) == 0.0

    def test_cross_charge_random_pairs_exact_zero_on_both_routes(self):
        # elements with disjoint charge supports: the charge-blocked pairing
        # multiplies nothing, and the expanded product has no charge-(0,0) term
        rng = random.Random(23)
        for q in MODERATE_Q:
            qp = QParam(q)
            for _ in range(100):
                u = random_polynomial(rng, qp, max_degree=4, n_terms=4)
                v = random_polynomial(rng, qp, max_degree=4, n_terms=4)
                shared = {m.charges for m in u.terms} & {m.charges for m in v.terms}
                v = NCPolynomial(qp, {m: c for m, c in v.terms.items()
                                      if m.charges not in shared})
                assert gns_inner(u, v) == 0.0
                assert expanded_inner(u, v) == 0.0


class TestLittleJacobi:
    def test_degree_zero_is_one(self, qp):
        x = parse("b b'", qp)
        assert little_jacobi(0, 0.5, 0.25, qp.q ** 2, x) == NCPolynomial.one(qp)

    def test_commutes_with_beta(self, qp):
        x = parse("b b'", qp)
        p = little_jacobi(3, qp.q ** 2, qp.q ** 4, qp.q ** 2, x)
        b = NCPolynomial.generator(qp, BETA)
        assert mul(p, b).allclose(mul(b, p), 1e-10)

    def test_degree_one_orthogonal_in_trivial_sector(self, qp):
        # depth-1 vector of the charge-(0,0) sector must be Haar-orthogonal to 1
        x = parse("b b'", qp)
        p1 = little_jacobi(1, 1.0, 1.0, qp.q ** 2, x)
        assert abs(haar_exact(p1)) < 1e-13

    def test_truncating_series_degree(self, qp):
        x = parse("b b'", qp)
        p = little_jacobi(4, qp.q ** 2, 1.0, qp.q ** 2, x)
        assert p.degree() == 8

    def test_degree_one_coefficient_value(self, qp):
        # for a = b = 1 the k = 1 series term simplifies by hand:
        # (1 - Q^-1)(1 - Q^2) Q / (1 - Q)^2 = -(1 + Q); consistent with
        # orthogonality to 1 since the first moment is 1/(1 + Q)
        Q = qp.q ** 2
        x = parse("b b'", qp)
        p1 = little_jacobi(1, 1.0, 1.0, Q, x)
        assert p1.coeff(CanonicalMonomial(0, 0, 0)) == pytest.approx(1.0)
        assert p1.coeff(CanonicalMonomial(0, 1, 1)) == pytest.approx(-(1 + Q))


class TestGramSchmidt:
    def test_unit_vector_first(self, qp):
        basis = gram_schmidt_basis(2, qp)
        assert basis.vector(0, 0, 0).poly == NCPolynomial.one(qp)

    def test_alpha_sector_norm(self, qp):
        q = qp.q
        basis = gram_schmidt_basis(1, qp)
        expected_norm2 = q * q / (1 + q * q)  # h(a*a) = 1 - h(bb*)
        key = (1, -1, -1)
        assert basis.norms[key] ** 2 == pytest.approx(expected_norm2, rel=1e-12)
        vec = basis.entries[key].poly
        assert set(m for m in vec.terms) == {CanonicalMonomial(1, 0, 0)}

    def test_orthonormal_up_to_l_three_halves(self, qp):
        # measured on the expanded route, independent of the sector moments
        # that built the basis
        basis = gram_schmidt_basis(3, qp)
        labels = basis.labels()
        for i, li in enumerate(labels):
            for lj in labels[i:]:
                val = expanded_inner(basis.entries[li], basis.entries[lj])
                target = 1.0 if li == lj else 0.0
                assert abs(val - target) <= 1e-10

    def test_label_counts(self, qp):
        basis = gram_schmidt_basis(4, qp)
        for l2 in range(5):
            count = sum(1 for lab in basis.labels() if lab[0] == l2)
            assert count == (l2 + 1) ** 2

    def test_entries_charge_homogeneous(self, qp):
        # every basis vector is a joint eigenvector of the two gradings
        basis = gram_schmidt_basis(4, qp)
        for (l2, j2, k2), vec in basis.entries.items():
            charges = {charge_of(m) for m in vec.poly.terms}
            assert len(charges) == 1
            assert charges.pop() == sector_of_label(j2, k2)

    def test_desk_scale_cap(self, qp):
        with pytest.raises(ValueError):
            gram_schmidt_basis(9, qp)

    def test_positive_definite_sector_grams(self, qp):
        # moment matrices stay positive definite through degree 8; entries
        # from the stable Jackson-sum oracle (the canonical-form expansion
        # cancels catastrophically at |c1| near 8)
        from qtriple.gns import sector_moment
        for (c1, c2), labels in sector_labels(8):
            depth = len(labels)
            gram = np.array([[sector_moment(c1, c2, s + t, qp)
                              for t in range(depth)] for s in range(depth)])
            assert np.min(np.linalg.eigvalsh(gram)) > 0.0

    def test_moment_oracle_matches_engine(self, qp):
        # on moderate sectors the Jackson sum and the expanded-product
        # pairing agree to near machine precision
        from qtriple.gns import sector_moment, _sector_base_monomial
        for (c1, c2) in [(0, 0), (1, 0), (-2, 1), (2, -2), (0, 3)]:
            for s, t in [(0, 0), (0, 1), (1, 2)]:
                u = NCPolynomial.monomial(qp, _sector_base_monomial(c1, c2, s))
                v = NCPolynomial.monomial(qp, _sector_base_monomial(c1, c2, t))
                engine = expanded_inner(u, v)
                oracle = sector_moment(c1, c2, s + t, qp)
                assert engine.real == pytest.approx(oracle, rel=1e-10)
                assert abs(engine.imag) < 1e-12

    def test_orthonormality_defect_sees_foreign_charge_term(self, qp):
        # a 1e-6 term of charge (1, 0) in the charge-(0,0) entry e^(1)_00
        # meets e^(1/2)_{-1/2,-1/2} = a / |a| there: a cross-pairing of
        # 1e-6 |a|, far above the 1e-10 tolerance of `verify gns`
        basis = gram_schmidt_basis(4, qp)
        assert basis_orthonormality_defect(basis, qp) <= 1e-10
        entries = dict(basis.entries)
        stray = NCPolynomial.monomial(qp, CanonicalMonomial(1, 0, 0), 1e-6)
        entries[(2, 0, 0)] = GNSVector(entries[(2, 0, 0)].poly + stray)
        spoiled = GNSBasis(basis.lmax, entries, basis.norms)
        assert basis_orthonormality_defect(spoiled, qp) > 1e-10

    def test_orthonormality_defect_matches_expanded_gram(self, qp):
        basis = gram_schmidt_basis(3, qp)
        labels = basis.labels()
        gram = np.array([[expanded_inner(basis.entries[li], basis.entries[lj])
                          for lj in labels] for li in labels])
        dense = float(np.max(np.abs(gram - np.eye(len(labels)))))
        assert abs(basis_orthonormality_defect(basis, qp) - dense) <= 1e-12

    def test_json_roundtrip(self, qp):
        basis = gram_schmidt_basis(2, qp)
        data = basis.to_json_dict()
        assert set(data) == {"lmax2", "entries"}
        back = GNSBasis.from_json_dict(data, qp)
        assert back.labels() == basis.labels()
        for key in basis.entries:
            assert back.entries[key].poly.allclose(basis.entries[key].poly, 1e-14)
            assert back.norms[key] == pytest.approx(basis.norms[key])


class TestMatrixCoefficients:
    def test_trivial_label(self, qp):
        assert t_matrix(0, 0, 0, qp).poly == NCPolynomial.one(qp)

    def test_spin_half_bottom_is_alpha(self, qp):
        vec = t_matrix(0.5, -0.5, -0.5, qp).poly
        assert set(vec.terms) == {CanonicalMonomial(1, 0, 0)}

    def test_label_validation(self, qp):
        with pytest.raises(ValueError):
            t_matrix(0.5, 1.5, 0.5, qp)
        with pytest.raises(ValueError):
            t_matrix(1, 0.5, 0, qp)

    def test_unit_norm(self, qp):
        # t_matrix normalizes with the moment pairing; measure on the
        # expanded route
        for (l, j, k) in [(1, 0, 0), (1.5, 0.5, -0.5), (2, -1, 1)]:
            vec = t_matrix(l, j, k, qp)
            assert expanded_inner(vec, vec).real == pytest.approx(1.0, abs=1e-12)

    def test_overlap_with_gram_schmidt(self, qp_any):
        basis = gram_schmidt_basis(3, qp_any)
        for (l2, j2, k2) in basis.labels():
            tv = t_matrix(HalfInt(l2), HalfInt(j2), HalfInt(k2), qp_any)
            overlap = abs(expanded_inner(tv, basis.entries[(l2, j2, k2)]))
            assert overlap >= 1.0 - 1e-8

    def test_deep_sector_overlap_via_stable_pairing(self, qp_any):
        # to l = 3 the expanded engine pairing cancels catastrophically in
        # deep alpha-power sectors, so measure overlaps with the moment
        # functional; the two constructions still agree on every label
        from qtriple.gns import sector_pair
        basis = gram_schmidt_basis(6, qp_any)
        for (l2, j2, k2) in basis.labels():
            tv = t_matrix(HalfInt(l2), HalfInt(j2), HalfInt(k2), qp_any)
            ov = abs(sector_pair(tv.poly, basis.entries[(l2, j2, k2)].poly, qp_any))
            assert ov >= 1.0 - 1e-8

    def test_sector_pair_matches_engine_on_moderate_sectors(self):
        from qtriple.gns import sector_pair
        for q in MODERATE_Q:
            qp = QParam(q)
            for (l, j, k) in [(1, 0, 0), (1.5, 0.5, -0.5), (2, -1, 1)]:
                tv = t_matrix(l, j, k, qp).poly
                engine = expanded_inner(tv, tv)
                assert sector_pair(tv, tv).real == pytest.approx(engine.real, rel=1e-10)
                assert gns_inner(tv, tv).real == pytest.approx(engine.real, rel=1e-10)

    @pytest.mark.parametrize("q", MODERATE_Q)
    def test_pairing_matches_expanded_route(self, q):
        assert pairing_gap(QParam(q)) <= 1e-11

    def test_pairing_check_catches_a_wrong_q_power(self, monkeypatch):
        # one x power too many in every Jackson summand: each node weight
        # gains a factor q^2, and the pairing must part from the oracle
        true_moment = gns._moment
        monkeypatch.setattr(gns, "_moment",
                            lambda c1, c2, p, q: true_moment(c1, c2, p + 1, q))
        for q in MODERATE_Q:
            assert pairing_gap(QParam(q)) > 1e-11

    def test_adjoint_symmetry_between_regions(self, qp):
        # the involution carries the ray of (l, j, k) to the ray of
        # (l, -j, -k); it is not a GNS isometry (the state is not a trace),
        # so compare normalized rays
        import math
        for (l, j, k) in [(1, 1, 0), (1.5, 0.5, 1.5), (2, 1, -1)]:
            t1 = adjoint(t_matrix(l, j, k, qp).poly)
            t2 = t_matrix(l, -j, -k, qp).poly
            cos = abs(gns_inner(t1, t2)) / math.sqrt(
                gns_inner(t1, t1).real * gns_inner(t2, t2).real)
            assert cos == pytest.approx(1.0, abs=1e-10)

    def test_sector_of_label_roundtrip(self):
        for (j2, k2) in [(-1, -1), (2, 0), (-3, 1), (0, 0)]:
            c1, c2 = sector_of_label(j2, k2)
            from qtriple.gns import label_of_sector
            assert label_of_sector(c1, c2) == (j2, k2)
