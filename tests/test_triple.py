import random

import numpy as np
import pytest

import routes
from qtriple.grammar import parse
from qtriple.ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR,
    CanonicalMonomial, NCPolynomial, QParam,
    monomials_up_to, random_polynomial, z2_act,
)
from qtriple.gns import GNSBasis, GNSVector, HalfInt, gram_schmidt_basis
from qtriple.rep import operator_norm
from qtriple.triple import (
    DiracSpec, aggregate_spectrum, assemble_unoriented_triple,
    certify_covering, check_parity, commutator_matrix, commutator_norm_scan,
    dirac_apply, dirac_labels, hilbert_module_product, pi_matrix,
    spectrum_rows, summability_scan,
)


class TestDirac:
    def test_eigenvalue_function(self):
        spec = DiracSpec(HalfInt(6))
        assert spec.d(0, 0) == -1
        assert spec.d(1, 0) == 3
        assert spec.d(HalfInt(1), HalfInt(1)) == -2  # l = j = 1/2
        assert spec.d(2, 2) == -5
        assert spec.d(2, -2) == 5

    def test_apply_scales_componentwise(self):
        spec = DiracSpec(HalfInt(4))
        coeffs = {(0, 0, 0): 1.0, (2, 0, 0): 2.0j, (1, 1, -1): 1.0}
        out = dirac_apply(coeffs, spec)
        assert out[(0, 0, 0)] == -1.0
        assert out[(2, 0, 0)] == 6.0j  # l = 1, j = 0: eigenvalue 3
        assert out[(1, 1, -1)] == -2.0  # l = j = 1/2

    def test_apply_rejects_labels_beyond_cutoff(self):
        spec = DiracSpec(HalfInt(2))
        with pytest.raises(ValueError):
            dirac_apply({(4, 0, 0): 1.0}, spec)

    def test_label_enumeration(self):
        labels = dirac_labels(4)
        for l2 in range(5):
            assert sum(1 for lab in labels if lab[0] == l2) == (l2 + 1) ** 2


class TestParity:
    def test_unit_is_even(self, qp):
        basis = gram_schmidt_basis(0, qp)
        results = check_parity(basis)
        assert len(results) == 1 and results[0].passed

    def test_spin_half_is_odd(self, qp):
        basis = gram_schmidt_basis(1, qp)
        poly = basis.entries[(1, -1, -1)].poly
        assert z2_act(poly) == -poly

    def test_integer_l_entries_even(self, qp):
        basis = gram_schmidt_basis(2, qp)
        for (l2, j2, k2) in basis.labels():
            if l2 == 2:
                poly = basis.entries[(l2, j2, k2)].poly
                assert z2_act(poly) == poly

    def test_exact_up_to_l_five_halves(self, qp):
        basis = gram_schmidt_basis(5, qp)
        results = check_parity(basis)
        assert len(results) == sum((l2 + 1) ** 2 for l2 in range(6))
        assert all(r.passed for r in results)
        assert all(r.value == 0.0 for r in results)


class TestCommutator:
    def test_unit_commutes(self, qp):
        basis = gram_schmidt_basis(3, qp)
        spec = DiracSpec(HalfInt(3))
        mat = commutator_matrix(NCPolynomial.one(qp), basis, spec)
        assert np.max(np.abs(mat)) < 1e-12

    def test_alpha_representation_is_charge_shifting(self, qp):
        basis = gram_schmidt_basis(3, qp)
        alpha = NCPolynomial.generator(qp, ALPHA)
        labels = basis.labels()
        mat = pi_matrix(alpha, basis, labels, labels)
        charge = {lab: next(iter(basis.entries[lab].poly.terms)).charges
                  for lab in labels}
        for ri, rlab in enumerate(labels):
            for ci, clab in enumerate(labels):
                dc = (charge[rlab][0] - charge[clab][0],
                      charge[rlab][1] - charge[clab][1])
                if dc != (1, 0):
                    assert mat[ri, ci] == 0.0

    # the benchmark's seven scan elements and two with several charges
    BLOCK_PI_ELEMENTS = ("a", "b", "a^2", "a b", "a b'", "b b'", "a' b",
                         "a + b", "a b' + 2 b' a - a'")

    @pytest.mark.parametrize("lmax2", [3, 6])
    def test_block_pi_equals_per_entry_pairing(self, qp, lmax2):
        basis = gram_schmidt_basis(lmax2, qp)
        rows = basis.labels()
        guarded = [lab for lab in rows if lab[0] <= lmax2 - 2]
        for expr in self.BLOCK_PI_ELEMENTS:
            x = parse(expr, qp)
            for cols in (rows, guarded):
                got = pi_matrix(x, basis, rows, cols)
                want = routes.pi_matrix(x, basis, rows, cols)
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), expr

    def test_block_pi_pairs_a_foreign_charge_term(self, qp):
        # a 1e-6 term of charge (1, -1) in the charge-(0,0) row e^(1)_00:
        # pi(a + b) pairs it with the a-part of the images of the charge
        # (0, -1) columns, whose b-part selects that row
        basis = gram_schmidt_basis(6, qp)
        entries = dict(basis.entries)
        stray = NCPolynomial.monomial(qp, CanonicalMonomial(1, 0, 1), 1e-6)
        entries[(2, 0, 0)] = GNSVector(entries[(2, 0, 0)].poly + stray)
        spoiled = GNSBasis(basis.lmax, entries, basis.norms)
        for expr in self.BLOCK_PI_ELEMENTS:
            x = parse(expr, qp)
            got = pi_matrix(x, spoiled)
            assert got.tobytes() == routes.pi_matrix(x, spoiled).tobytes(), expr
        x = parse("a + b", qp)
        gap = np.max(np.abs(pi_matrix(x, spoiled) - pi_matrix(x, basis)))
        assert 1e-8 < gap < 1e-5

    def test_block_pi_keeps_the_pairing_guarantees(self, qp):
        from qtriple.ncpoly import DegreeOverflowError
        basis = gram_schmidt_basis(4, qp)
        with pytest.raises(ValueError, match="mixed deformation"):
            pi_matrix(parse("a", QParam(0.3)), basis)
        capped = QParam(0.5, max_degree=5)
        small = gram_schmidt_basis(4, capped)
        with pytest.raises(DegreeOverflowError, match="pairing degree"):
            pi_matrix(parse("a", capped), small)

    def test_guarded_columns_expand_completely(self, qp):
        # Parseval on guarded columns: |a e|^2 equals the column sum of
        # |pi entries|^2, i.e. nothing leaks past the built basis
        from qtriple.gns import sector_pair
        basis = gram_schmidt_basis(4, qp)
        alpha = NCPolynomial.generator(qp, ALPHA)
        cols = [lab for lab in basis.labels() if lab[0] <= 2]
        rows = basis.labels()
        mat = pi_matrix(alpha, basis, rows, cols)
        for ci, clab in enumerate(cols):
            from qtriple.ncpoly import mul
            image = mul(alpha, basis.entries[clab].poly)
            norm_sq = sector_pair(image, image).real
            col_sq = float(np.sum(np.abs(mat[:, ci]) ** 2))
            assert col_sq == pytest.approx(norm_sq, rel=1e-10)

    def test_norm_scan_nondecreasing_and_stable(self, qp):
        alpha = NCPolynomial.generator(qp, ALPHA)
        norms = commutator_norm_scan(alpha, qp, [5, 6, 7])
        assert norms[0] <= norms[1] + 1e-12 and norms[1] <= norms[2] + 1e-12
        assert abs(norms[1] - norms[0]) / norms[0] < 0.05
        assert abs(norms[2] - norms[1]) / norms[1] < 0.05

    def test_beta_commutator_stable(self, qp):
        beta = NCPolynomial.generator(qp, BETA)
        norms = commutator_norm_scan(beta, qp, [5, 6, 7])
        assert abs(norms[2] - norms[1]) / norms[1] < 0.05

    def test_alpha_squared_norm_is_largest_singular_value(self, qp):
        # the bench workload's scan element a^2 at lmax2 = 6, where a power
        # iteration stalled 1.9e-6 below the largest singular value
        x = parse("a^2", qp)
        top = commutator_matrix(x, gram_schmidt_basis(6, qp), DiracSpec(HalfInt(6)))
        svd = np.linalg.svd(top, compute_uv=False)[0]
        (norm,) = commutator_norm_scan(x, qp, [6])
        assert abs(norm - svd) <= 1e-12 * svd

    def test_norm_scan_equals_per_cutoff_rebuild(self, qp):
        # the scan reads each cutoff as a leading block of the top-cutoff
        # commutator; a basis and commutator rebuilt per cutoff give the
        # very same floats
        for expr in ("a", "a^2", "b b'"):
            x = parse(expr, qp)
            cutoffs = list(range(2 * x.degree(), 9))
            rebuilt = [operator_norm(commutator_matrix(x, gram_schmidt_basis(lmax2, qp),
                                                       DiracSpec(HalfInt(lmax2))))
                       for lmax2 in cutoffs]
            assert commutator_norm_scan(x, qp, cutoffs) == rebuilt

    def test_unguarded_pi_is_a_contraction(self):
        # a, b and a* act as contractions, so every compression of their
        # left multiplication to the basis span has 2-norm <= 1
        for q, lmax2 in ((0.3, 6), (0.5, 8)):
            qp = QParam(q)
            basis = gram_schmidt_basis(lmax2, qp)
            for expr in ("a", "b", "a'"):
                norm = np.linalg.norm(pi_matrix(parse(expr, qp), basis), 2)
                assert norm <= 1.0 + 1e-12, (q, lmax2, expr, norm)

    def test_unguarded_pi_bound_catches_a_wrong_q_power(self, monkeypatch):
        # one x power too many in the moments of the a*-power sectors
        # (c1 < 0): the basis and the pairing then disagree with the algebra
        # and pi(a) stops being a contraction
        from qtriple import gns
        true_moment = gns._moment
        monkeypatch.setattr(gns, "_moment", lambda c1, c2, p, q:
                            true_moment(c1, c2, p + (c1 < 0), q))
        qp = QParam(0.3)
        basis = gram_schmidt_basis(6, qp)
        assert np.linalg.norm(pi_matrix(parse("a", qp), basis), 2) > 1.0 + 1e-12

    def test_guard_band_requires_room(self, qp):
        basis = gram_schmidt_basis(1, qp)
        spec = DiracSpec(HalfInt(1))
        with pytest.raises(ValueError):
            commutator_matrix(parse("a b", qp), basis, spec)


class TestSummability:
    def test_s4_converging_trend(self):
        rows = summability_scan(16, 4.0)
        incs = [r["increment"] for r in rows]
        assert all(incs[i] < incs[i - 1] for i in range(1, len(incs)))
        # ratio < 0.9 beyond l = 3 on the scanned window (l <= 8)
        for i in range(1, len(rows)):
            if rows[i]["l2"] > 6:
                assert incs[i] / incs[i - 1] < 0.9

    def test_s3_harmonic_increments(self):
        rows = summability_scan(40, 3.0)
        for r in rows:
            if 10 <= r["l2"] <= 40:
                assert abs(r["increment"] * (r["l2"] + 1) - 1.0) <= 0.1

    def test_s10_tail_negligible_by_l_eight(self):
        partial_at = {r["l2"]: r["partial"] for r in summability_scan(40, 10.0)}
        assert abs(partial_at[16] - partial_at[40]) <= 1e-3

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            summability_scan(4, 0.0)


class TestHilbertModuleProduct:
    def test_alpha_with_alpha(self, qp):
        # <a, a> = a*a + g(a*a) = 2(1 - bb*)
        out = hilbert_module_product(parse("a", qp), parse("a", qp))
        expected = 2.0 * (NCPolynomial.one(qp)
                          - NCPolynomial.monomial(qp, CanonicalMonomial(0, 1, 1)))
        assert out.allclose(expected, 1e-13)

    def test_alpha_with_beta(self, qp):
        # a*b is already even, so the orbit sum doubles its normal form
        out = hilbert_module_product(parse("a", qp), parse("b", qp))
        expected = 2.0 * parse("a' b", qp)
        assert out.allclose(expected, 1e-13)

    def test_unit_with_alpha_averages_to_zero(self, qp):
        assert hilbert_module_product(NCPolynomial.one(qp), parse("a", qp)).is_zero()

    def test_output_always_sign_flip_fixed(self, qp):
        rng = random.Random(3)
        for _ in range(100):
            a = random_polynomial(rng, qp, max_degree=4, n_terms=3)
            b = random_polynomial(rng, qp, max_degree=4, n_terms=3)
            out = hilbert_module_product(a, b)
            assert z2_act(out) == out


class TestCovering:
    def test_degree_one_decomposes_trivially(self, qp):
        cert = certify_covering(1, qp)
        assert cert.odd_count == 4
        for mon, pairs in cert.decompositions.items():
            assert len(pairs) == 1
            factor, letter = pairs[0]
            assert factor == NCPolynomial.one(qp)

    def test_count_matches_enumeration(self, qp):
        cert = certify_covering(5, qp)
        assert cert.odd_count == sum((d + 1) ** 2 for d in (1, 3, 5))
        assert cert.odd_count == len(monomials_up_to(5, parity="odd"))

    def test_full_degree_eight(self, qp):
        cert = certify_covering(8, qp)
        assert cert.max_degree_checked == 8
        assert cert.odd_count == sum((d + 1) ** 2 for d in (1, 3, 5, 7))
        assert sorted(cert.generators) == [ALPHA, ALPHA_STAR, BETA, BETA_STAR]

    def test_degree_cap(self, qp):
        with pytest.raises(ValueError):
            certify_covering(11, qp)


class TestSpectrum:
    def test_oriented_lmax_one(self):
        rows = spectrum_rows(2, "oriented")
        eigs = {r["eig"] for r in rows}
        assert eigs == {-1, -2, 2, -3, 3}
        assert sum(r["mult"] for r in rows) == 1 + 4 + 9

    def test_unoriented_only_odd_integer_levels(self):
        rows = spectrum_rows(2, "unoriented")
        assert {r["eig"] for r in rows} == {-1, -3, 3}
        for r in rows:
            assert r["eig"] % 2 != 0

    def test_multiplicity_split(self):
        agg = {d["eig"]: d["mult"] for d in aggregate_spectrum(spectrum_rows(4, "oriented"))}
        # at l: -(2l+1) has multiplicity 2l+1, +(2l+1) has 2l(2l+1)
        assert agg[-5] == 5 and agg[5] == 20
        assert agg[-3] == 3 and agg[3] == 6
        assert agg[-1] == 1 and 1 not in agg


class TestSignFlipUnitarity:
    def test_pairing_preserved_on_100_random_pairs(self, qp):
        from qtriple.gns import gns_inner
        rng = random.Random(2)
        for _ in range(100):
            a = random_polynomial(rng, qp, max_degree=4, n_terms=3)
            b = random_polynomial(rng, qp, max_degree=4, n_terms=3)
            lhs = gns_inner(z2_act(a), z2_act(b))
            rhs = gns_inner(a, b)
            assert abs(lhs - rhs) <= 1e-12


class TestAssembly:
    def test_report_all_pass(self, qp):
        result = assemble_unoriented_triple(4, qp, seed=0)
        assert result["all_pass"]
        names = [c.name for c in result["checks"]]
        assert "g commutes with D" in names
        assert "restricted spectrum odd integers only" in names

    def test_exact_equivariance_any_cutoff(self, qp):
        for lmax2 in (1, 3, 5):
            result = assemble_unoriented_triple(lmax2, qp, seed=1)
            by_name = {c.name: c for c in result["checks"]}
            assert by_name["g commutes with D"].value == 0.0

    def test_restricted_table(self, qp):
        result = assemble_unoriented_triple(4, qp, seed=0)
        agg = {d["eig"]: d["mult"] for d in aggregate_spectrum(result["restricted"])}
        assert agg == {-1: 1, -3: 3, 3: 6, -5: 5, 5: 20}
