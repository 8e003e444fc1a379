import contextlib
import dataclasses
import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import exact_gns
import routes
from qtriple import cli, gns, rep, triple
from qtriple.grammar import parse
from qtriple.ncpoly import (
    BETA,
    CanonicalMonomial, NCPolynomial, QParam,
    adjoint, monomials_up_to, mul, random_polynomial,
)
from qtriple.gns import (
    GNSBasis, GNSVector, GramSingularError, HalfInt, basis_orthonormality_defect,
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


def same_bits(u, v):
    """Equal coefficients bit for bit, signed zeros included."""
    return json.dumps(u.to_json_dict()) == json.dumps(v.to_json_dict())


def failing_gns_checks(*argv):
    """Names of the failing checks of `verify gns` with the given options."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "gns", *argv])
    return [c["name"] for c in json.loads(out.getvalue())["checks"] if not c["pass"]]


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

    def test_coercion(self):
        assert halfint(2) == HalfInt(4)
        assert halfint(1.5) == HalfInt(3)
        assert halfint(HalfInt(1)) == HalfInt(1)
        with pytest.raises(ValueError):
            halfint(0.3)


class TestHaarExact:
    def test_normalized_state(self, qp):
        assert haar_exact(NCPolynomial.one(qp)) == 1.0

    def test_bb_star_value(self, qp):
        q = qp.q
        expected = (1 - q * q) / (1 - q ** 4)
        assert haar_exact(parse("b b'", qp)) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("q", [0.02, 0.5, 0.9, 0.999, 0.9999])
    def test_bb_star_powers_against_exact_rationals(self, q):
        # h((bb*)^n) = 1 / sum_{i <= n} q^(2i) in exact rationals of the float
        # q; the quotient (1 - q^2) / (1 - q^(2(n+1))) is 1.8e-13 off at q = 0.9999
        qp = QParam(q)
        for n in range(7):
            exact = 1 / sum(Fraction(q) ** (2 * i) for i in range(n + 1))
            assert abs(haar_exact(mono(qp, 0, n, n)) - float(exact)) <= 1e-15, n

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

    @pytest.mark.parametrize("q", MODERATE_Q)
    def test_equals_unit_column_route(self, q):
        # the z = 0 column of the diagonal words' grids, summed per level in
        # the same order, against unit columns through apply_poly_to_columns
        qp = QParam(q)
        t = TruncationSpec(24, 6)
        for m in monomials_up_to(6):
            p = NCPolynomial.monomial(qp, m)
            assert haar_numeric(p, t) == routes.haar_numeric(p, t), m
        rng = random.Random(5)
        for _ in range(20):
            x = random_polynomial(rng, qp, max_degree=6, n_terms=6)
            assert haar_numeric(x, t) == routes.haar_numeric(x, t)

    @pytest.mark.parametrize("z_band", [2, 8])
    def test_one_shift_batch_equals_the_per_monomial_route(self, qp, z_band):
        # the charge-(0, 0) words x^n have different lengths, so the batch
        # pads the shorter ones; at z_band 2 the words x^n, n > 2, leave the
        # z window and add nothing
        t = TruncationSpec(24, z_band)
        rng = random.Random(11)
        for _ in range(10):
            terms = {CanonicalMonomial(0, n, n): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for n in rng.sample(range(6), 4)}
            terms[CanonicalMonomial(1, 0, 2)] = 0.5
            x = NCPolynomial(qp, terms)
            assert haar_numeric(x, t) == routes.haar_numeric_per_monomial(x, t)
            assert haar_numeric(x, t) == routes.haar_numeric(x, t)

    def test_wrong_b_weight_fails_exactly_the_haar_check(self, monkeypatch):
        # q^2 in place of q at Fock level 1: of the `verify gns` checks only
        # "haar exact vs numeric" goes through the representation
        assert failing_gns_checks("--q", "0.5") == []
        exact = rep._weights

        def wrong_power(t, q):
            wa, wb = exact(t, q)
            wb = wb.copy()
            wb[1] = q ** 2
            return wa, wb

        monkeypatch.setattr(rep, "_weights", wrong_power)
        assert failing_gns_checks("--q", "0.5") == ["haar exact vs numeric (deg <= 6)"]

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

    def test_no_degree_cap_on_the_pair(self):
        # node vectors pair without forming u* v, so the product's degree
        # cap no longer applies: deg u + deg v = 6 pairs at a cap of 5
        capped = QParam(0.5, max_degree=5)
        u, v = parse("a^2 b", capped), parse("a b b' + a^2 b", capped)
        want = gns_inner(parse("a^2 b", QParam(0.5)), parse("a b b' + a^2 b", QParam(0.5)))
        assert gns_inner(u, v) == want
        assert want == pytest.approx(expanded_inner(parse("a^2 b", QParam(0.5)),
                                                    parse("a b b' + a^2 b", QParam(0.5))),
                                     abs=1e-15)

    def test_sesquilinear(self, qp):
        rng = random.Random(7)
        x = random_polynomial(rng, qp, max_degree=3, n_terms=3)
        y = random_polynomial(rng, qp, max_degree=3, n_terms=3)
        c = 1.5 - 0.5j
        assert gns_inner(c * x, y) == pytest.approx(c.conjugate() * gns_inner(x, y), abs=1e-12)
        assert gns_inner(x, c * y) == pytest.approx(c * gns_inner(x, y), abs=1e-12)


class TestFockWeights:
    """The batched weight kernel against `routes.level_weights`, one monomial
    at a time: the same float operations in the same order, so bitwise."""

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.999])
    def test_base_weights_match_the_per_monomial_oracle_bitwise(self, q):
        sectors = [sector for sector, _ in sector_labels(8)]
        want = np.array([routes.sector_weights(c1, c2, q) for c1, c2 in sectors])
        assert gns._base_weights(sectors, q).tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", MODERATE_Q)
    def test_action_weights_match_the_per_monomial_oracle_bitwise(self, q):
        # complex coefficients, a scalar c1 and rows of c1 values on both
        # sides of 0, so levels f < 0 occur for a- and a*-powers alike
        qp = QParam(q)
        rng = random.Random(29)
        for _ in range(50):
            x = random_polynomial(rng, qp, max_degree=6, n_terms=5)
            x = NCPolynomial(qp, {m: c * complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                  for m, c in x.terms.items()})
            for c1 in (0, 3, np.arange(-8, 9)):
                got, want = gns.action_weights(x, c1), routes.action_weights(x, c1)
                assert got.keys() == want.keys()
                for charge, w in want.items():
                    assert got[charge].tobytes() == w.tobytes(), (x, c1, charge)

    def test_node_form_is_pi_of_the_element_on_omega(self, qp):
        # the pairing's node vectors are pi(p) Omega: the weights of pi(p) on
        # sector (0, 0), without the pairing's constant, times Omega = q^n
        x = parse("a b' + 0.3 a' b + b b' - 2 a^2", qp)
        omega = qp.q ** np.arange(len(gns._grid(qp.q)))
        nodes = gns._node_form(x, qp.q, {m.charges for m in x.terms})
        weights = routes.action_weights(x, 0)
        assert nodes.keys() == weights.keys()
        for charge, w in weights.items():
            assert np.max(np.abs(nodes[charge] * (1.0 - qp.q ** 2) - w * omega)) <= 1e-16


class TestCharges:
    def test_examples(self):
        assert CanonicalMonomial(1, 1, 0).charges == (1, 1)
        assert CanonicalMonomial(0, 0, 1).charges == (0, -1)

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
                assert m.charges == total

    def test_cross_sector_orthogonality_exact(self, qp):
        rng = random.Random(11)
        sectors = {}
        for m in monomials_up_to(4):
            sectors.setdefault(m.charges, []).append(m)
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
        assert basis.entries[(0, 0, 0)].poly == NCPolynomial.one(qp)

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
            charges = {m.charges for m in vec.poly.terms}
            assert len(charges) == 1
            assert charges.pop() == sector_of_label(j2, k2)
            assert set(vec.nodes) == {sector_of_label(j2, k2)}

    @pytest.mark.parametrize("q, lmax2, tol", [(0.5, 6, 1e-9), (0.8, 8, 1e-10)])
    def test_hankel_route_agrees_where_it_is_well_conditioned(self, q, lmax2, tol):
        # Gram-Schmidt on x-coefficients against the Hankel moment matrix,
        # the algorithm this basis replaced, loses digits with depth: 8e-11
        # at (0.5, 6) and 2.3e-11 at (0.8, 8), 7.7e-7 at (0.5, 8)
        qp = QParam(q)
        basis = gram_schmidt_basis(lmax2, qp)
        entries, norms = routes.gram_schmidt_entries(lmax2, qp)
        assert basis.labels() == sorted(entries)
        for key, vec in entries.items():
            assert basis.norms[key] == pytest.approx(norms[key], rel=tol)
            for mon, c in vec.poly.terms.items():
                assert abs(basis.entries[key].poly.coeff(mon) - c) <= tol * abs(c), key

    def test_lower_cutoff_is_the_leading_part(self):
        # every operation is elementwise or a sum along one sector's nodes,
        # so no vector depends on lmax2 (a Householder QR of each sector
        # would not give this)
        qp = QParam(0.5)
        top = gram_schmidt_basis(8, qp)
        for lmax2 in (4, 6, 7):
            basis = gram_schmidt_basis(lmax2, qp)
            for key, vec in basis.entries.items():
                (sector, nodes), = vec.nodes.items()
                assert nodes.tobytes() == top.entries[key].nodes[sector].tobytes(), key
                assert same_bits(vec.poly, top.entries[key].poly), key
                assert basis.norms[key] == top.norms[key]

    def test_degenerate_sector_error_names_sector_and_depth(self):
        # at q = 1e-20 the weight of sector (2, -3) on its first node, n = 2,
        # is q^n q^(3n) = 1e-160: its square leaves the float range
        with pytest.raises(GramSingularError, match=r"sector \(2, -3\) depth 0: residual"):
            gram_schmidt_basis(5, QParam(1e-20))
        assert basis_orthonormality_defect(gram_schmidt_basis(3, QParam(1e-20))) <= 1e-15

    def test_grid_doubling_changes_no_node_vector(self, monkeypatch):
        # twice the nodes (floor 1e-36 in place of 1e-18): no node vector
        # changes on the old nodes by more than 1e-15, and the nodes added
        # carry a squared mass below double rounding (at most 4.1e-18, at
        # q = 0.9), so no pairing sees them
        def node_vectors(q):
            gns._grid.cache_clear()
            gns.gram_schmidt_basis.cache_clear()
            basis = gram_schmidt_basis(8, QParam(q))
            return {k: next(iter(v.nodes.values())) for k, v in basis.entries.items()}

        for q in (0.1, 0.2, 0.5, 0.9):
            base = node_vectors(q)
            with monkeypatch.context() as m:
                m.setattr(gns, "_NODE_FLOOR", 1e-36)
                doubled = node_vectors(q)
            node_vectors(q)  # restore the caches
            n = len(next(iter(base.values())))
            assert len(next(iter(doubled.values()))) > n
            for key, vec in base.items():
                assert np.max(np.abs(doubled[key][:n] - vec)) <= 1e-15, (q, key)
                assert np.sum(doubled[key][n:] ** 2) <= 1e-16, (q, key)

    def test_cached_basis_rejects_mutation(self, qp):
        basis = gram_schmidt_basis(4, qp)
        assert gram_schmidt_basis(4, qp) is basis
        entry = basis.entries[(2, 0, 0)]
        with pytest.raises(TypeError):
            basis.entries[(2, 0, 0)] = basis.entries[(0, 0, 0)]
        with pytest.raises(TypeError):
            basis.norms[(2, 0, 0)] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.vectors = basis.vectors.copy()
        with pytest.raises(TypeError):
            entry.nodes[(1, 0)] = entry.nodes[(0, 0)]
        for array in (entry.nodes[(0, 0)], basis.vectors, basis.depth_norms, basis.depths,
                      basis.label_array, basis.label_index):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_x_coefficients_are_built_only_when_read(self, monkeypatch, qp):
        # the meter, the operator layer and the restricted triple read the
        # node array alone; the closed-form series runs when the entries are
        # first read, and then scales by 1 / (leading coefficient x norm),
        # real parts only
        def refuse(*args):
            raise AssertionError("x-coefficients built")

        monkeypatch.setattr(gns, "_matrix_coefficient_series", refuse)
        basis = gram_schmidt_basis(6, qp)
        x = parse("a + b b'", qp)
        assert basis_orthonormality_defect(basis) <= 1e-15
        assert np.any(triple.pi_matrix(x, basis))
        assert np.any(triple.commutator_matrix(x, basis, triple.DiracSpec(HalfInt(6))))
        assert triple.commutator_norm_scan(x, qp, [4, 5, 6])[-1] > 0.0
        assert all(r.passed for r in triple.check_parity(basis))
        assert gns.matrix_coefficient_defect(basis) <= 1e-15
        assert all(c.passed for c in triple.assemble_unoriented_triple(6, qp)["checks"])
        monkeypatch.undo()
        for (c1, c2), labels in sector_labels(6):
            i = basis.sectors.index((c1, c2))
            for depth, key in enumerate(labels):
                series = gns._matrix_coefficient_series(c1, c2, depth, qp).terms
                lead = series[gns._sector_base_monomial(c1, c2, depth)].real
                scale = 1.0 / (lead * basis.depth_norms[depth, i])
                want = NCPolynomial(qp, {m: c.real * scale for m, c in series.items()})
                assert same_bits(basis.entries[key].poly, want), key

    def test_entries_are_built_per_label(self, monkeypatch, qp):
        # a fresh basis over the memoized arrays: the first read builds one
        # series per label, once; the mapping lists every label in order
        calls = []
        true_series = gns._matrix_coefficient_series
        monkeypatch.setattr(gns, "_matrix_coefficient_series",
                            lambda *args: calls.append(args) or true_series(*args))
        top = gram_schmidt_basis(4, qp)
        basis = GNSBasis(qp, top.sectors, top.vectors, top.depth_norms)
        assert list(basis.entries) == basis.labels() and len(basis.entries) == 55
        entry = basis.entries[(3, 1, -1)]
        assert basis.entries[(3, 1, -1)] is entry and (0, -1, 1, qp) in calls
        assert (3, -1, 1) in basis.entries and (5, 1, 1) not in basis.entries
        with pytest.raises(KeyError):
            basis.entries[(5, 1, 1)]
        assert len(calls) == 55

    def test_basis_memo_is_bounded(self):
        # near q = 1 a basis is large (120 MB at q = 0.999), so the memo
        # keeps at most BASIS_MEMO_SIZE of them
        memo = gns.gram_schmidt_basis
        assert memo.cache_info().maxsize == gns.BASIS_MEMO_SIZE
        for q in (0.3, 0.5):
            for lmax2 in range(gns.BASIS_MEMO_SIZE + 2):
                gram_schmidt_basis(lmax2, QParam(q))
                assert memo.cache_info().currsize <= gns.BASIS_MEMO_SIZE
        assert memo.cache_info().currsize == gns.BASIS_MEMO_SIZE

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
        # the charge-(1, 0) node vector of e^(1/2)_{-1/2,-1/2} = a / |a|,
        # added at 1e-6 to e^(3/2)_{-1/2,-1/2}, the next entry of that
        # sector, in a spoiled copy of the node array: the sector block
        # reads that cross-pairing of 1e-6 (an entry cannot carry a vector
        # of another sector: the array has one slot per sector and depth)
        basis = gram_schmidt_basis(4, qp)
        assert basis_orthonormality_defect(basis) <= 1e-15
        sector = basis.sectors.index((1, 0))
        vectors = basis.vectors.copy()
        vectors[1, sector] += 1e-6 * vectors[0, sector]
        spoiled = GNSBasis(qp, basis.sectors, vectors, basis.depth_norms)
        assert basis_orthonormality_defect(spoiled) == pytest.approx(1e-6, rel=1e-9)

    def test_orthonormality_defect_sees_a_perturbed_node_vector(self, qp):
        # e^(1)_00 gains 1e-6 of the unit entry, in a copy of the node array
        basis = gram_schmidt_basis(4, qp)
        sector = basis.sectors.index((0, 0))
        vectors = basis.vectors.copy()
        vectors[1, sector] += 1e-6 * vectors[0, sector]
        spoiled = GNSBasis(qp, basis.sectors, vectors, basis.depth_norms)
        assert basis_orthonormality_defect(spoiled) == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("lmax2", [0, 3, 8, 16])
    def test_orthonormality_defect_matches_the_dense_gram(self, monkeypatch, lmax2):
        # the sector blocks against the dense Gram of all entries, on the
        # built basis and with the unit entry stretched by 1e-6
        monkeypatch.setattr(gns, "LMAX2_CAP", 16)
        qp = QParam(0.5)
        basis = gram_schmidt_basis(lmax2, qp)
        vectors = basis.vectors.copy()
        vectors[0, basis.sectors.index((0, 0))] *= 1.0 + 1e-6
        spoiled = GNSBasis(qp, basis.sectors, vectors, basis.depth_norms)
        assert basis_orthonormality_defect(basis) <= 1e-15
        assert basis_orthonormality_defect(spoiled) == pytest.approx(2e-6, rel=1e-6)
        for b in (basis, spoiled):
            assert basis_orthonormality_defect(b) == pytest.approx(
                routes.orthonormality_defect(b, qp), rel=1e-9, abs=1e-15)

    def test_orthonormality_defect_matches_expanded_gram(self, qp):
        basis = gram_schmidt_basis(3, qp)
        labels = basis.labels()
        gram = np.array([[expanded_inner(basis.entries[li], basis.entries[lj])
                          for lj in labels] for li in labels])
        dense = float(np.max(np.abs(gram - np.eye(len(labels)))))
        assert abs(basis_orthonormality_defect(basis) - dense) <= 1e-12

    def test_json_roundtrip(self, qp):
        basis = gram_schmidt_basis(2, qp)
        data = json.loads(json.dumps(basis.to_json_dict()))
        assert set(data) == {"lmax2", "entries"}
        assert data["lmax2"] == 2
        assert [(e["l2"], e["j2"], e["k2"]) for e in data["entries"]] == basis.labels()
        for e in data["entries"]:
            key = (e["l2"], e["j2"], e["k2"])
            assert NCPolynomial.from_json_dict(e["poly"]) == basis.entries[key].poly
            assert e["norm"] == basis.norms[key]


class TestMatrixCoefficients:
    def test_trivial_label(self, qp):
        assert t_matrix(0, 0, 0, qp).poly == NCPolynomial.one(qp)

    def test_spin_half_bottom_is_alpha(self, qp):
        vec = t_matrix(0.5, -0.5, -0.5, qp).poly
        assert set(vec.terms) == {CanonicalMonomial(1, 0, 0)}

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.8))
    def test_equals_little_jacobi_route_bitwise(self, q):
        # the x-coefficients before normalization are bitwise those of
        # little_jacobi on an algebra element; the entries then differ only
        # in the norm, which t_matrix reads from its node vector and the
        # route from the expanded coefficients (8.6e-15 apart at q = 0.8)
        qp = QParam(q)
        for (c1, c2), labels in sector_labels(8):
            for depth, (l2, j2, k2) in enumerate(labels):
                assert same_bits(gns._matrix_coefficient_series(c1, c2, depth, qp),
                                 routes.matrix_coefficient_series(c1, c2, depth, qp))
                label = (HalfInt(l2), HalfInt(j2), HalfInt(k2))
                got, want = t_matrix(*label, qp).poly, routes.t_matrix(*label, qp).poly
                assert set(got.terms) == set(want.terms), (l2, j2, k2)
                for mon, c in want.terms.items():
                    assert abs(got.terms[mon] - c) <= 1e-13 * abs(c), (l2, j2, k2)

    @pytest.mark.parametrize("q", (0.1, 0.2, 0.3, 0.5, 0.8))
    def test_self_pairs_to_one_at_every_label(self, q):
        # the norm and the pairing both read the node vector; the Hankel
        # moment pairing missed 1 by 1.5e-3 at q = 0.3 and raised below
        qp = QParam(q)
        for _, labels in sector_labels(8):
            for (l2, j2, k2) in labels:
                vec = t_matrix(HalfInt(l2), HalfInt(j2), HalfInt(k2), qp)
                assert abs(gns_inner(vec, vec) - 1.0) <= 1e-12, (l2, j2, k2)

    @pytest.mark.parametrize("q", (0.1, 0.2, 0.5, 0.9))
    def test_node_vectors_match_gram_schmidt_at_every_label(self, q):
        # the transformed series at the nodes: at most 7.8e-16 from 0.02 to
        # 0.99; the expanded coefficients missed (8, 0, 0) by 0.737 at q =
        # 0.1, the three-term recurrence by 2.1e-3
        qp = QParam(q)
        basis = gram_schmidt_basis(8, qp)
        for (l2, j2, k2), entry in basis.entries.items():
            tv = t_matrix(HalfInt(l2), HalfInt(j2), HalfInt(k2), qp)
            assert 1.0 - abs(gns.sector_pair(tv, entry)) <= 1e-12, (q, l2, j2, k2)

    def test_pairing_degree_cap(self, qp):
        # depth 17 in the charge-(0,0) sector: the self-pairing has degree 68
        from qtriple.ncpoly import DegreeOverflowError
        with pytest.raises(DegreeOverflowError):
            t_matrix(17, 0, 0, qp)

    def test_label_validation(self, qp):
        with pytest.raises(ValueError):
            t_matrix(0.5, 1.5, 0.5, qp)
        with pytest.raises(ValueError):
            t_matrix(1, 0.5, 0, qp)

    def test_unit_norm(self, qp):
        # t_matrix normalizes with the node pairing; measure on the
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

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.9])
    def test_batched_overlap_matches_the_per_label_route(self, q):
        # all sectors of one depth at once against one t_matrix and one
        # sector_pair per label; both at roundoff
        basis = gram_schmidt_basis(8, QParam(q))
        got = gns.matrix_coefficient_defect(basis)
        assert got <= 1e-15
        assert abs(got - routes.matrix_coefficient_defect(basis)) <= 1e-15

    def test_deep_sector_overlap_via_stable_pairing(self, qp_any):
        # to l = 3 the expanded engine pairing cancels catastrophically in
        # deep alpha-power sectors, so measure overlaps with the moment
        # functional; the two constructions still agree on every label
        from qtriple.gns import sector_pair
        basis = gram_schmidt_basis(6, qp_any)
        for (l2, j2, k2) in basis.labels():
            tv = t_matrix(HalfInt(l2), HalfInt(j2), HalfInt(k2), qp_any)
            ov = abs(sector_pair(tv, basis.entries[(l2, j2, k2)]))
            assert ov >= 1.0 - 1e-12

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
        # one x power too many in every sector measure: the weight kernel
        # counts one b degree too many, so each node weight gains a factor
        # q^n (x_n in the measure), and the pairing must part from the oracle
        true_weights = gns._fock_weights
        monkeypatch.setattr(gns, "_fock_weights", lambda alpha, degree, f, q:
                            true_weights(alpha, np.asarray(degree) + 1, f, q))
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


EXACT_Q = (Fraction(1, 2), Fraction(1, 3))


def exact_mismatch(qf: Fraction, lmax2: int = 8) -> float:
    """Worst relative error of the basis norms and x-coefficients against the
    exact monic polynomials p_d and squared norms h_d (entry = p_d / sqrt(h_d))."""
    qp = QParam(float(qf))
    basis = gram_schmidt_basis(lmax2, qp)
    worst = 0.0
    for (c1, c2), labels in sector_labels(lmax2):
        polys, norms_sq = exact_gns.monic_basis(c1, c2, len(labels), qf)
        for depth, key in enumerate(labels):
            norm = math.sqrt(float(norms_sq[depth]))
            worst = max(worst, abs(basis.norms[key] - norm) / norm)
            for t, exact in enumerate(polys[depth]):
                got = basis.entries[key].poly.coeff(gns._sector_base_monomial(c1, c2, t))
                want = float(exact) / norm
                worst = max(worst, abs(got - want) / abs(want))
    return worst


def a_star_weights_gain_a_b_degree():
    """The weight kernel with one b degree too many on the a*-power monomials
    (alpha exponent < 0): their node weights gain a factor q^n (x_n in the
    measure)."""
    true_weights = gns._fock_weights

    def mutant(alpha, degree, f, q):
        return true_weights(alpha, np.asarray(degree) + (np.asarray(alpha) < 0), f, q)
    return mutant


class TestExactOracle:
    """The float GNS layer against exact rational arithmetic at q = 1/2, 1/3.

    Measured worst errors to lmax2 8: norms and x-coefficients 9.6e-16
    (q = 1/2) and 1.7e-15 (q = 1/3), relative; squared pi(a), pi(b)
    entries 8.9e-16, absolute.  The Hankel Gram-Schmidt missed by 2.1e-7 at
    q = 1/2 and stopped at q = 1/3.
    """

    @pytest.mark.parametrize("qf", EXACT_Q, ids=str)
    def test_moments_match(self, qf):
        qp = QParam(float(qf))
        for (c1, c2), labels in sector_labels(8):
            count = 2 * len(labels) - 1
            for p, exact in enumerate(exact_gns.sector_moments(c1, c2, count, qf)):
                assert gns.sector_moment(c1, c2, p, qp) == pytest.approx(float(exact), rel=1e-14)

    @pytest.mark.parametrize("qf", EXACT_Q, ids=str)
    def test_basis_matches(self, qf):
        assert exact_mismatch(qf) <= 1e-14

    @pytest.mark.parametrize("qf", EXACT_Q, ids=str)
    def test_generator_entries_match(self, qf):
        qp = QParam(float(qf))
        basis = gram_schmidt_basis(8, qp)
        labels = basis.labels()
        position = {lab: i for i, lab in enumerate(labels)}
        sectors = dict(sector_labels(8))
        counts = {s: len(labs) for s, labs in sectors.items()}
        for letter, shift in (("a", (1, 0)), ("b", (0, 1))):
            mat = triple.pi_matrix(parse(letter, qp), basis)
            expected = np.zeros(mat.shape)
            for (c1, c2), cols in sectors.items():
                rows = sectors.get((c1 + shift[0], c2 + shift[1]), [])
                for dc, col in enumerate(cols):
                    for dr, row in enumerate(rows):
                        expected[position[row], position[col]] = exact_gns.generator_entry_sq(
                            letter, (c1, c2), dc, dr, counts, qf)
            assert np.max(np.abs(np.abs(mat) ** 2 - expected)) <= 1e-14, letter

    def test_wrong_q_power_parts_from_it(self, monkeypatch):
        # one x power too many in the weights of the a*-power sectors
        # (c1 < 0): the basis is still orthonormal in node space, but no
        # longer the one of the Haar state
        assert exact_mismatch(Fraction(1, 2), lmax2=4) <= 1e-14
        monkeypatch.setattr(gns, "_fock_weights", a_star_weights_gain_a_b_degree())
        assert exact_mismatch(Fraction(1, 2), lmax2=4) > 1e-3


class TestVerifyGnsMutations:
    """Each check of `verify gns` fails, alone, under a mutation aimed at it
    (the Haar check's mutation is in TestHaarNumeric)."""

    def test_series_check(self, monkeypatch):
        # a wrong q power in the closed form above degree 6, which the
        # numeric check's monomials do not reach
        true_haar = gns._haar_monomial
        monkeypatch.setattr(gns, "_haar_monomial", lambda mon, q: true_haar(mon, q)
                            * (q if mon.beta > 3 else 1.0))
        assert failing_gns_checks("--q", "0.5") == ["haar (bb*)^n vs geometric series"]

    def test_series_check_catches_the_quotient_near_q_one(self, monkeypatch):
        # (1 - q^2) / (1 - q^(2(n+1))) cancels: at q = 0.9999 it is 1.8e-13
        # from the exact rationals the check reads, above its 1e-14
        assert failing_gns_checks("--q", "0.9999", "--lmax2", "2") == []
        monkeypatch.setattr(gns, "_haar_monomial", lambda mon, q: (
            (1.0 - q * q) / (1.0 - q ** (2 * (mon.beta + 1)))
            if mon.alpha == 0 and mon.beta == mon.beta_star else 0.0))
        assert failing_gns_checks("--q", "0.9999", "--lmax2", "2") == [
            "haar (bb*)^n vs geometric series"]

    def test_orthonormality_check(self, monkeypatch):
        # no reorthogonalization pass: at q = 0.2 one sweep leaves 1.3e-9
        assert failing_gns_checks("--q", "0.2", "--lmax2", "8") == []
        true_sweep = gns._project_out
        calls = itertools.count()
        monkeypatch.setattr(gns, "_project_out", lambda u, done, rows, m:
                            true_sweep(u, done, rows, m) if next(calls) % 2 == 0 else u)
        assert failing_gns_checks("--q", "0.2", "--lmax2", "8") == ["orthonormality"]

    def test_label_count_check(self, monkeypatch):
        # the deepest label of the charge-(0, 0) sector goes missing
        true_labels = gns.sector_labels
        monkeypatch.setattr(gns, "sector_labels", lambda lmax2: [
            (s, labels[:-1] if s == (0, 0) else labels) for s, labels in true_labels(lmax2)])
        assert failing_gns_checks("--q", "0.5") == ["label counts (2l+1)^2"]

    def test_overlap_check_at_small_q(self):
        assert failing_gns_checks("--q", "0.1", "--lmax2", "8") == []

    def test_overlap_check_catches_a_wrong_series_factor(self, monkeypatch):
        # one q^2 too many in the last growth factor of the transformed
        # series that gives t_matrix its node vectors
        true_factors = gns._transformed_coefficients

        def wrong(n, a, b, qsq):
            factors = list(true_factors(n, a, b, qsq))
            return factors[:-1] + [factors[-1] * qsq] if factors else factors

        monkeypatch.setattr(gns, "_transformed_coefficients", wrong)
        assert failing_gns_checks("--q", "0.5") == ["matrix coefficients match Gram-Schmidt"]
        assert failing_gns_checks("--q", "0.1", "--lmax2", "8") == [
            "matrix coefficients match Gram-Schmidt"]

    def test_overlap_check(self, monkeypatch):
        # one x power too many in the weights of the a*-power sectors: the
        # closed-form matrix coefficients are no longer orthogonal there
        monkeypatch.setattr(gns, "_fock_weights", a_star_weights_gain_a_b_degree())
        assert failing_gns_checks("--q", "0.5") == ["matrix coefficients match Gram-Schmidt"]
