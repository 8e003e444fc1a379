import contextlib
import functools
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import exact_gns
import routes
from qtriple.grammar import parse
from qtriple.ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR,
    CanonicalMonomial, NCPolynomial, QParam,
    monomials_up_to, random_polynomial, z2_act,
)
from qtriple import cli, gns, triple
from qtriple.gns import HalfInt, gram_schmidt_basis, sector_of_label
from qtriple.triple import (
    DiracSpec, assemble_unoriented_triple,
    certify_covering, check_parity, commutator_matrix, commutator_norm_scan,
    dirac_labels, hilbert_module_product, pi_matrix,
    spectrum_rows, summability_scan,
)


def run_verify(suite, *argv):
    """(exit code, report) of `qtriple verify <suite>`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite, *argv])
    return code, json.loads(out.getvalue())


class TestDirac:
    def test_eigenvalue_function(self):
        spec = DiracSpec(HalfInt(6))
        assert spec.d(0, 0) == -1
        assert spec.d(1, 0) == 3
        assert spec.d(HalfInt(1), HalfInt(1)) == -2  # l = j = 1/2
        assert spec.d(2, 2) == -5
        assert spec.d(2, -2) == 5

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

    @pytest.mark.parametrize("flip", ["negated", "b letters only"])
    def test_verify_parity_catches_a_wrong_sign_flip(self, monkeypatch, flip):
        # g's sign comes from z2_act on each sector's base monomial: negated
        # everywhere, every label fails; counting only the b letters, the
        # labels of sectors with odd alpha exponent c1 = -(j + k) fail
        def wrong(x):
            if flip == "negated":
                return -z2_act(x)
            return NCPolynomial(x.qp, {m: c if (m.beta + m.beta_star) % 2 == 0 else -c
                                       for m, c in x.terms.items()})

        assert run_verify("parity", "--q", "0.5", "--lmax2", "5")[0] == 0
        monkeypatch.setattr(triple, "z2_act", wrong)
        code, report = run_verify("parity", "--q", "0.5", "--lmax2", "5")
        failing = {c["name"] for c in report["checks"] if not c["pass"]}
        labels = [(l2, j2, k2) for l2 in range(6) for j2 in range(-l2, l2 + 1, 2)
                  for k2 in range(-l2, l2 + 1, 2)]
        odd_c1 = [lab for lab in labels if (lab[1] + lab[2]) // 2 % 2]
        assert code == 1 and odd_c1
        assert failing == {f"parity l2={l2} j2={j2} k2={k2}"
                           for (l2, j2, k2) in (labels if flip == "negated" else odd_c1)}

    def test_checks_on_the_node_array_build_no_x_coefficients(self, monkeypatch):
        # verify gns, verify parity and verify triple read the node array alone
        calls = []
        true_series = gns._matrix_coefficient_series
        monkeypatch.setattr(gns, "_matrix_coefficient_series",
                            lambda *args: calls.append(args) or true_series(*args))
        gram_schmidt_basis.cache_clear()
        for suite in ("gns", "parity", "triple"):
            assert run_verify(suite, "--q", "0.5", "--lmax2", "8")[0] == 0, suite
            assert calls == [], suite


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
        mat = pi_matrix(alpha, basis)
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
    def test_block_pi_matches_per_entry_pairing(self, qp, lmax2):
        # the ladders against gns_inner(e_r, a e_c) with the product a e_c
        # expanded and evaluated at the nodes; the expanded coefficients
        # cost digits (1.6e-12 at lmax2 6, 4e-10 at 8)
        basis = gram_schmidt_basis(lmax2, qp)
        rows = basis.labels()
        guarded = [i for i, lab in enumerate(rows) if lab[0] <= lmax2 - 2]
        for expr in self.BLOCK_PI_ELEMENTS:
            x = parse(expr, qp)
            for cols in (range(len(rows)), guarded):
                got = pi_matrix(x, basis)[:, cols]
                want = routes.pi_matrix(x, basis, rows, [rows[i] for i in cols])
                assert np.max(np.abs(got - want)) <= 1e-11, expr

    def test_block_pi_pairs_a_foreign_charge_term(self, qp):
        # pi(a + b) on the charge-(0, -1) columns: b lands them in sector
        # (0, 0), the sector of the row e^(1)_00, and a in sector (1, -1),
        # foreign to that row; each term pairs with its own sector's rows
        # alone, so the two blocks add up to pi(a) + pi(b) and meet the
        # per-entry oracle
        basis = gram_schmidt_basis(6, qp)
        labels = basis.labels()
        sector = [sector_of_label(j2, k2) for _, j2, k2 in labels]
        cols = [i for i, s in enumerate(sector) if s == (0, -1)]
        x = parse("a + b", qp)
        got = pi_matrix(x, basis)[:, cols]
        hit = {sector[i] for i in np.flatnonzero(np.max(np.abs(got), axis=1) > 1e-12)}
        assert hit == {(0, 0), (1, -1)}
        parts = pi_matrix(parse("a", qp), basis) + pi_matrix(parse("b", qp), basis)
        assert np.max(np.abs(got - parts[:, cols])) <= 1e-14
        want = routes.pi_matrix(x, basis, labels, [labels[i] for i in cols])
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_block_pi_keeps_the_pairing_guarantees(self, qp):
        basis = gram_schmidt_basis(4, qp)
        with pytest.raises(ValueError, match="mixed deformation"):
            pi_matrix(parse("a", QParam(0.3)), basis)
        # no product is formed, so the degree cap of `mul` no longer applies
        capped = QParam(0.5, max_degree=5)
        small = gram_schmidt_basis(4, capped)
        want = pi_matrix(parse("a b b'", qp), basis)
        assert pi_matrix(parse("a b b'", capped), small).tobytes() == want.tobytes()

    def test_guarded_columns_expand_completely(self, qp):
        # Parseval on guarded columns: |a e|^2 equals the column sum of
        # |pi entries|^2, i.e. nothing leaks past the built basis
        from qtriple.gns import sector_pair
        basis = gram_schmidt_basis(4, qp)
        alpha = NCPolynomial.generator(qp, ALPHA)
        mat = pi_matrix(alpha, basis)
        for ci, clab in enumerate(basis.labels()):
            if clab[0] > 2:
                continue
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
        # the scan reads every cutoff's components from the top-cutoff
        # commutator; single-cutoff scans, each on its own lmax2 basis, give
        # the very same floats (the dense SVD of the same matrix can differ
        # in the last bit: test_norm_scan_matches_the_dense_svd)
        for expr in ("a", "a^2", "b b'", "a + b", "a b' + 2 b' a - a'"):
            x = parse(expr, qp)
            cutoffs = list(range(2 * x.degree(), 9))
            rebuilt = [commutator_norm_scan(x, qp, [lmax2])[0] for lmax2 in cutoffs]
            assert commutator_norm_scan(x, qp, cutoffs) == rebuilt, expr

    SCAN_GRID = [(q, lmax2) for q in (0.3, 0.5, 0.9) for lmax2 in (3, 6, 8)]

    @classmethod
    @functools.lru_cache(maxsize=None)
    def dense_scans(cls):
        """Per (q, lmax2, element): the cutoffs and the largest singular value
        of the dense commutator's leading block at each, from np.linalg.svd
        (computed once, before any test patches the code)."""
        out = {}
        for q, lmax2 in cls.SCAN_GRID:
            qp = QParam(q)
            basis = gram_schmidt_basis(lmax2, qp)
            l2 = basis.label_array[:, 0]
            for expr in cls.BLOCK_PI_ELEMENTS:
                x = parse(expr, qp)
                cutoffs = list(range(2 * x.degree(), lmax2 + 1))
                if not cutoffs:
                    continue
                top = commutator_matrix(x, basis, DiracSpec(HalfInt(lmax2)))
                out[q, lmax2, expr] = cutoffs, [
                    np.linalg.svd(top[:np.sum(l2 <= cut), :np.sum(l2 <= cut - 2 * x.degree())],
                                  compute_uv=False)[0]
                    for cut in cutoffs]
        return out

    def scan_gap(self) -> float:
        """Worst relative gap of commutator_norm_scan to the dense SVDs; a
        scan that decreases reads as a gap of 1."""
        worst = 0.0
        for (q, lmax2, expr), (cutoffs, want) in self.dense_scans().items():
            qp = QParam(q)
            got = commutator_norm_scan(parse(expr, qp), qp, cutoffs)
            worst = max(worst, *(abs(g - w) / w for g, w in zip(got, want)))
            if any(b < a for a, b in zip(got, got[1:])):
                worst = 1.0
        return worst

    def test_norm_scan_matches_the_dense_svd(self):
        # component norms against one dense SVD per cutoff, on single- and
        # multi-charge elements, nondecreasing; measured 7.1e-16
        assert len(self.dense_scans()) == 63
        assert self.scan_gap() <= 1e-12

    def test_norm_scan_oracle_catches_a_dropped_block(self, monkeypatch):
        # the entries of one (row sector, column sector) block, the largest,
        # go missing from pi
        self.dense_scans()
        true_entries = triple._pi_entries

        def dropped(a, qp, lmax2, width):
            rows, cols, vals = true_entries(a, qp, lmax2, width)
            sectors = [sector_of_label(j2, k2) for _, j2, k2 in dirac_labels(lmax2)]
            index = {sector: i for i, sector in enumerate(sorted(set(sectors)))}
            sector = np.array([index[s] for s in sectors])
            pair = sector[rows] * len(index) + sector[cols]
            keep = pair != np.bincount(pair).argmax()
            return rows[keep], cols[keep], vals[keep]

        monkeypatch.setattr(triple, "_pi_entries", dropped)
        assert self.scan_gap() > 1e-3

    def test_norm_scan_oracle_catches_merged_components(self, monkeypatch):
        # the layout of each component collapses: every row and column at
        # its first place, so the entries of a component land on each other
        self.dense_scans()
        monkeypatch.setattr(triple, "_ranks", lambda groups: np.zeros_like(groups))
        assert self.scan_gap() > 1e-3

    def test_unguarded_pi_is_a_contraction(self):
        # a, b and a* act as contractions, so every compression of their
        # left multiplication to the basis span has 2-norm <= 1; the ladders
        # give that compression exactly, and a wrong q power in one of them
        # fails the exact oracle (TestLadders)
        for q, lmax2 in ((0.3, 6), (0.5, 8)):
            qp = QParam(q)
            basis = gram_schmidt_basis(lmax2, qp)
            for expr in ("a", "b", "a'"):
                norm = np.linalg.norm(pi_matrix(parse(expr, qp), basis), 2)
                assert norm <= 1.0 + 1e-12, (q, lmax2, expr, norm)

    def test_norm_scan_builds_no_basis(self):
        # the scan reads labels only, so not even q = 0.999, where one
        # lmax2 = 6 basis holds tens of MB, reaches the basis memo
        qp = QParam(0.999)
        info = gram_schmidt_basis.cache_info()
        norms = commutator_norm_scan(NCPolynomial.generator(qp, ALPHA), qp, [3, 4, 5, 6])
        assert gram_schmidt_basis.cache_info() == info
        assert 0.0 < norms[0] <= norms[-1]

    def test_guard_band_requires_room(self, qp):
        basis = gram_schmidt_basis(1, qp)
        spec = DiracSpec(HalfInt(1))
        with pytest.raises(ValueError):
            commutator_matrix(parse("a b", qp), basis, spec)


def ladder_mismatch(qf: Fraction) -> tuple[int, float]:
    """(count, worst relative error) of the squared ladder entries of pi(a)
    and pi(b) on the columns l2 <= 7 against the exact rationals of
    `exact_gns.generator_entry_sq` at q = qf."""
    labels = dirac_labels(8)
    counts = {sector: len(labs) for sector, labs in gns.sector_labels(8)}

    def place(label):
        l2, j2, k2 = label
        return sector_of_label(j2, k2), (l2 - max(abs(j2), abs(k2))) // 2

    count, worst = 0, 0.0
    ladders = triple._ladders(8, float(qf))
    for letter, name in ((ALPHA, "a"), (BETA, "b")):
        for targets, values in ladders[letter]:
            for col in range(triple._label_count(8)):
                if targets[col] < 0:
                    continue
                col_sector, col_depth = place(labels[col])
                _, row_depth = place(labels[targets[col]])
                exact = exact_gns.generator_entry_sq(name, col_sector, col_depth, row_depth,
                                                     counts, qf)
                worst = max(worst, abs(values[col] ** 2 / float(exact) - 1.0))
                count += 1
    return count, worst


LADDER_ELEMENTS = TestCommutator.BLOCK_PI_ELEMENTS + ("a'", "b'", "a' a", "b' b a'", "a^3 b' b")


def node_array_gap() -> float:
    """Worst absolute gap of pi_matrix and commutator_matrix to the node-array
    oracle, at lmax2 8 on LADDER_ELEMENTS for five q."""
    worst = 0.0
    for q in (0.1, 0.3, 0.5, 0.9, 0.97):
        qp = QParam(q)
        basis = gram_schmidt_basis(8, qp)
        d = DiracSpec(HalfInt(8)).diagonal(basis.label_array)
        for expr in LADDER_ELEMENTS:
            x = parse(expr, qp)
            want = routes.node_array_pi_matrix(x, basis)
            worst = max(worst, np.max(np.abs(pi_matrix(x, basis) - want)))
            if 2 * x.degree() <= 8:
                got = commutator_matrix(x, basis, DiracSpec(HalfInt(8)))
                want = (d[:, None] - d[None, :got.shape[1]]) * want[:, :got.shape[1]]
                worst = max(worst, np.max(np.abs(got - want)))
    return worst


@pytest.fixture
def wrong_q_power(monkeypatch):
    """pi(a)'s up entry at q^(2l + 2 - c1), one q power too many."""
    true_entries = triple._generator_entries

    def wrong(gen, up, labels, f, power):
        out = true_entries(gen, up, labels, f, power)
        return out * power[1] if gen == ALPHA and up else out

    triple._ladders.cache_clear()
    monkeypatch.setattr(triple, "_generator_entries", wrong)
    yield
    triple._ladders.cache_clear()


class TestLadders:
    """The closed-form ladders of pi(a) and pi(b) against the exact rational
    oracle and the node-array oracle.  Measured: 1.2e-15 relative to the
    exact squares, 5.3e-15 absolute to the node array (q = 0.97)."""

    @pytest.mark.parametrize("qf", (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)), ids=str)
    def test_entries_match_the_exact_oracle(self, qf):
        count, worst = ladder_mismatch(qf)
        assert count == 688
        assert worst <= 1e-14

    def test_pi_and_commutator_match_the_node_array(self):
        assert node_array_gap() <= 1e-14

    def test_a_wrong_q_power_fails_both_oracles(self, wrong_q_power):
        assert ladder_mismatch(Fraction(9, 10))[1] > 1e-2
        assert node_array_gap() > 1e-2

    def test_star_ladders_are_the_transposes(self):
        # a* and b* take the steps of a and b backwards, and a step has a
        # target exactly where its entry is nonzero
        ladders = triple._ladders(6, 0.5)
        n = triple._label_count(7)

        def dense(letter):
            mat = np.zeros((n, n))
            for pos, val in ladders[letter]:
                assert np.array_equal(pos >= 0, val != 0)
                src = np.flatnonzero(pos >= 0)
                mat[pos[src], src] += val[src]
            return mat

        for gen, star in ((ALPHA, ALPHA_STAR), (BETA, BETA_STAR)):
            assert np.array_equal(dense(star), dense(gen).T)

    def test_label_positions_are_the_sorted_order(self):
        labels = dirac_labels(8)
        assert labels == sorted(labels)
        assert [triple._position(*lab) for lab in labels] == list(range(len(labels)))
        assert triple._label_count(9) == len(labels)


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

    def test_mismatch_is_recorded_not_raised(self, qp, monkeypatch):
        exact = triple.module_decompose
        monkeypatch.setattr(triple, "module_decompose",
                            lambda x: [(2 * f, letter) for f, letter in exact(x)])
        cert = certify_covering(3, qp)
        assert cert.odd_count == 0
        assert cert.mismatches == list(monomials_up_to(3, parity="odd"))

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
        agg = {}
        for r in spectrum_rows(4, "oriented"):
            agg[r["eig"]] = agg.get(r["eig"], 0) + r["mult"]
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
        assert all(c.passed for c in result["checks"])
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
        assert result["restricted"] == [{"eig": e, "mult": m} for e, m in
                                        [(-5, 5), (-3, 3), (-1, 1), (3, 6), (5, 20)]]

    @staticmethod
    def failing_triple_checks():
        code, report = run_verify("triple", "--q", "0.5", "--lmax2", "8")
        failing = [c["name"] for c in report["checks"] if not c["pass"]]
        assert code == (1 if failing else 0)
        return failing

    def test_even_subspace_check_reads_pi_on_node_vectors(self, monkeypatch):
        # pi(a) with every charge shifted by (0, 1): an even element then
        # maps an even vector into the sectors where g = -1
        assert "even algebra preserves even subspace" not in self.failing_triple_checks()
        true_weights = triple.action_weights
        monkeypatch.setattr(triple, "action_weights", lambda a, c1: {
            (k, d + 1): w for (k, d), w in true_weights(a, c1).items()})
        assert "even algebra preserves even subspace" in self.failing_triple_checks()

    def test_restricted_spectrum_check_reads_d(self, monkeypatch):
        # D = +-(l2 + 2): even eigenvalues on the integer-l labels
        assert "restricted spectrum odd integers only" not in self.failing_triple_checks()
        monkeypatch.setattr(triple.DiracSpec, "diagonal", lambda self, labels: np.where(
            labels[:, 1] == labels[:, 0], -(labels[:, 0] + 2), labels[:, 0] + 2))
        assert "restricted spectrum odd integers only" in self.failing_triple_checks()
