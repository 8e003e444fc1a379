import itertools
import os
import random

import numpy as np
import pytest

import routes
from qtriple import rep
from qtriple.grammar import parse
from qtriple.ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR, LETTERS, NCPolynomial, QParam,
    adjoint, mul, random_polynomial, random_word,
)
from qtriple.rep import (
    RELATION_NAMES, TruncationSpec, apply_poly_to_columns, apply_word_to_columns,
    edge_defect, load_matrix, normal_form_residual, operator_norm, relation_residuals,
    represent, save_matrix,
)
from routes import build_generators, interior_indices, norm_bound


T_SMALL = TruncationSpec(8, 4, 1)


def dense_generators(t, q):
    """The four generators as kron'd dense matrices: the oracle for the shift action."""
    nf, nz = t.fock_dim, t.z_count
    a_fock = np.zeros((nf, nf), dtype=complex)
    for k in range(1, nf):
        a_fock[k - 1, k] = np.sqrt(1.0 - q ** (2 * k))
    q_diag = np.diag([q ** k for k in range(nf)]).astype(complex)
    r_mat = np.zeros((nz, nz), dtype=complex)
    for m in range(nz - 1):
        r_mat[m + 1, m] = 1.0
    alpha = np.kron(a_fock, np.eye(nz, dtype=complex))
    beta = np.kron(q_diag, r_mat)
    return {ALPHA: alpha, ALPHA_STAR: alpha.conj().T, BETA: beta, BETA_STAR: beta.conj().T}


def dense_represent(x, t):
    """Sum over monomials of c * (1 @ M_1 @ ... @ M_n), multiplied left to right."""
    mats = dense_generators(t, x.qp.q)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for mon, c in x.terms.items():
        acc = np.eye(t.dim, dtype=complex)
        for letter in mon.letters():
            acc = acc @ mats[letter]
        out += c * acc
    return out


def complex_polynomial(rng, qp, max_degree, n_terms):
    x = random_polynomial(rng, qp, max_degree=max_degree, n_terms=n_terms)
    return NCPolynomial(qp, {m: c * complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                             for m, c in x.terms.items()})


def basis_vec(t, fock, z):
    v = np.zeros(t.dim, dtype=complex)
    v[t.index(fock, z)] = 1.0
    return v


def column_block_residual(terms, t, qp, margin):
    """The column-block residual: the interior's unit columns pushed through
    sum c * word on the letter-by-letter grids of `routes`, rows restricted
    to the interior, then `norm_bound`.  The oracle for the residuals taken
    from the separable shifts."""
    idx = interior_indices(t, margin)
    cols = np.zeros((t.dim, len(idx)), dtype=complex)
    cols[idx, np.arange(len(idx))] = 1.0
    acc = sum(c * routes.apply_word_to_columns(letters, t, qp.q, cols) for c, letters in terms)
    return norm_bound(acc[idx, :])


def assert_grid_residuals_match_column_block_oracle(q):
    qp = QParam(q)
    a, a_, b, b_ = ALPHA, ALPHA_STAR, BETA, BETA_STAR
    for t in (TruncationSpec(8, 4, 1), TruncationSpec(5, 3, 1), TruncationSpec(16, 8, 2)):
        res = relation_residuals(t, qp)
        for name, terms in rep._relation_terms(q).items():
            want = column_block_residual(terms, t, qp, t.margin + 2)
            assert abs(res[name] - want) <= 1e-16
        want = column_block_residual(rep._relation_terms(q)[RELATION_NAMES[1]], t, qp, 0)
        assert edge_defect(t, qp) == pytest.approx(want, rel=1e-14)
        # mixed sectors: several displacements, so not a partial permutation
        for terms in (((1.0, (a,)), (2.0, (b,))),
                      ((1.0, (a, b)), (0.5j, (b_,)), (-1.0, ()), (0.25, (a_, a_)))):
            for margin in (0, 2):
                got, = rep._residual_bounds([(terms, margin)], t, qp)
                want = column_block_residual(terms, t, qp, margin)
                assert got == pytest.approx(want, rel=1e-14)


class TestTruncationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationSpec(3, 4)
        with pytest.raises(ValueError):
            TruncationSpec(8, 1)
        with pytest.raises(ValueError):
            TruncationSpec(8, 4, 4)

    def test_indexing(self):
        t = TruncationSpec(4, 2)
        assert t.dim == 4 * 5
        assert t.index(0, -2) == 0
        assert t.index(1, 0) == 7


class TestGenerators:
    def test_alpha_kills_fock_vacuum(self, qp):
        a, _ = build_generators(T_SMALL, qp)
        for z in (-2, 0, 3):
            assert np.allclose(a @ basis_vec(T_SMALL, 0, z), 0.0)

    def test_beta_shifts_z_with_fock_weight(self, qp):
        _, b = build_generators(T_SMALL, qp)
        for k in (0, 2, 5):
            got = b @ basis_vec(T_SMALL, k, 1)
            assert np.allclose(got, qp.q ** k * basis_vec(T_SMALL, k, 2))

    def test_beta_hard_truncates_top_z(self, qp):
        _, b = build_generators(T_SMALL, qp)
        assert np.allclose(b @ basis_vec(T_SMALL, 2, T_SMALL.z_band), 0.0)

    def test_alpha_entries_match_factored_product(self, qp):
        # compose the shift and the diagonal sqrt(1-q^(2k)) independently
        a, _ = build_generators(T_SMALL, qp)
        nf, nz = T_SMALL.fock_dim, T_SMALL.z_count
        shift = np.zeros((nf, nf))
        for k in range(1, nf):
            shift[k - 1, k] = 1.0
        diag = np.diag([np.sqrt(1.0 - qp.q ** (2 * k)) for k in range(nf)])
        expected = np.kron(shift @ diag, np.eye(nz))
        assert np.allclose(a, expected)
        for k in range(1, T_SMALL.fock_dim):
            got = a @ basis_vec(T_SMALL, k, 0)
            assert np.allclose(got, np.sqrt(1 - qp.q ** (2 * k)) * basis_vec(T_SMALL, k - 1, 0))


class TestRepresent:
    def test_unit_is_identity(self, qp):
        assert np.allclose(represent(NCPolynomial.one(qp), T_SMALL), np.eye(T_SMALL.dim))

    def test_bb_star_diagonal(self, qp):
        # bb* acts as q^(2k) except at the bottom z edge where R* truncates
        mat = represent(parse("b b'", qp), T_SMALL)
        assert np.allclose(mat, np.diag(np.diag(mat)))
        for k in range(T_SMALL.fock_dim):
            for z in range(-T_SMALL.z_band, T_SMALL.z_band + 1):
                expected = 0.0 if z == -T_SMALL.z_band else qp.q ** (2 * k)
                assert mat[T_SMALL.index(k, z), T_SMALL.index(k, z)] == pytest.approx(expected)

    def test_unitarity_relation_on_interior(self, qp):
        mat = represent(parse("a' a + b' b", qp), T_SMALL)
        idx = interior_indices(T_SMALL, 1)
        assert np.allclose(mat[np.ix_(idx, idx)], np.eye(len(idx)), atol=1e-13)

    def test_linear(self, qp):
        x = parse("a + 2 b", qp)
        ref = represent(parse("a", qp), T_SMALL) + 2 * represent(parse("b", qp), T_SMALL)
        assert np.allclose(represent(x, T_SMALL), ref)

    def test_adjoint_compatible_with_dagger(self, qp):
        # the involution matches the matrix adjoint on the interior window
        rng = random.Random(2)
        idx = interior_indices(T_SMALL, 3)
        for _ in range(10):
            x = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            lhs = represent(adjoint(x), T_SMALL)[np.ix_(idx, idx)]
            rhs = represent(x, T_SMALL).conj().T[np.ix_(idx, idx)]
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestInteriorProjector:
    """The interior projector, held as the index set it projects onto."""

    def test_zero_margin_is_identity(self, qp):
        assert np.array_equal(interior_indices(T_SMALL, 0), np.arange(T_SMALL.dim))

    def test_rank_counting(self):
        t = TruncationSpec(4, 2, 1)
        assert len(interior_indices(t)) == 3 * 3
        assert t.dim == 20

    def test_projector_axioms(self):
        # distinct, sorted, inside the window, and exactly the basis vectors
        # at least `margin` steps from the top Fock edge and both z edges
        for t in (TruncationSpec(6, 3, 2), TruncationSpec(5, 4, 1)):
            idx = interior_indices(t)
            want = [t.index(f, z) for f in range(t.fock_dim - t.margin)
                    for z in range(-(t.z_band - t.margin), t.z_band - t.margin + 1)]
            assert idx.tolist() == want
            assert np.all(np.diff(idx) > 0) and 0 <= idx[0] and idx[-1] < t.dim

    def test_margin_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            interior_indices(TruncationSpec(6, 3), 4)


class TestRelationResiduals:
    def test_all_relations_vanish_on_interior(self, qp_any):
        t = TruncationSpec(16, 8, 2)
        res = relation_residuals(t, qp_any)
        assert set(res) == set(RELATION_NAMES)
        assert max(res.values()) <= 1e-12

    def test_margin_precondition(self, qp):
        with pytest.raises(ValueError):
            relation_residuals(TruncationSpec(8, 4, 0), qp)

    def test_edge_defect_is_order_one(self, qp):
        t = TruncationSpec(8, 4, 1)
        assert edge_defect(t, qp) >= 1.0 - qp.q ** (2 * t.fock_dim) - 1e-9

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_grid_residuals_match_column_block_oracle(self, q):
        assert_grid_residuals_match_column_block_oracle(q)


class TestNormalFormOracle:
    def test_random_words_agree_with_normal_form(self, qp):
        t = TruncationSpec(16, 8, 2)
        rng = random.Random(0)
        words = [random_word(rng, max_len=8) for _ in range(60)]
        assert max(normal_form_residual(words, t, qp)) <= 1e-10

    def test_matches_column_block_oracle(self, qp):
        t = TruncationSpec(12, 6)
        rng = random.Random(1)
        words = [random_word(rng, max_len=8) for _ in range(40)]
        for w, got in zip(words, normal_form_residual(words, t, qp)):
            nf = rep.normalize(w, qp)
            terms = [(w.coefficient, w.letters)] + [(-c, m.letters()) for m, c in nf.terms.items()]
            mu = min(len(w.letters), min(t.fock_dim - 1, t.z_band))
            assert abs(got - column_block_residual(terms, t, qp, mu)) <= 1e-15

    def test_given_normal_forms_are_used_as_they_are(self, qp):
        # the forms a caller already has give the residuals bit for bit;
        # a form that is not the word's is measured as given
        t = TruncationSpec(16, 8, 2)
        rng = random.Random(3)
        words = [random_word(rng, max_len=8, with_coefficient=True) for _ in range(40)]
        forms = [rep.normalize(w, qp) for w in words]
        assert normal_form_residual(words, t, qp, forms) == normal_form_residual(words, t, qp)
        forms[7] = forms[7] + 1e-6 * NCPolynomial.generator(qp, BETA)
        assert max(normal_form_residual(words, t, qp, forms)) >= 0.999e-6
        with pytest.raises(ValueError):
            normal_form_residual(words, t, qp, forms[:-1])

    def test_foreign_sector_term_fails(self, monkeypatch, qp):
        t = TruncationSpec(16, 8, 2)
        rng = random.Random(0)
        words = [random_word(rng, max_len=8) for _ in range(60)]
        exact = rep.normalize

        def foreign(word, qp):
            # a term in b's sector, foreign to every word outside that sector
            return exact(word, qp) + 1e-6 * NCPolynomial.generator(qp, BETA)

        monkeypatch.setattr(rep, "normalize", foreign)
        worst = max(normal_form_residual(words, t, qp))
        # the b term's largest interior weight is q^0 = 1, at the Fock vacuum
        assert worst >= 0.999e-6

    def test_homomorphism_on_interior(self, qp):
        t = TruncationSpec(12, 6)
        rng = random.Random(6)
        for _ in range(10):
            x = random_polynomial(rng, qp, max_degree=2, n_terms=2)
            y = random_polynomial(rng, qp, max_degree=2, n_terms=2)
            idx = interior_indices(t, 4)
            lhs = represent(mul(x, y), t)
            rhs = represent(x, t) @ represent(y, t)
            assert np.max(np.abs((lhs - rhs)[np.ix_(idx, idx)])) < 1e-11

    def test_column_block_matches_full_matrix(self, qp):
        x = parse("a b' + q b a", qp)
        cols = np.eye(T_SMALL.dim, dtype=complex)[:, :7]
        assert np.allclose(apply_poly_to_columns(x, T_SMALL, cols),
                           represent(x, T_SMALL)[:, :7])


class TestShiftActionOracle:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("t", [TruncationSpec(8, 4), TruncationSpec(5, 3)],
                             ids=["interior", "both-edges"])
    def test_every_short_word_matches_kron_product(self, t, q):
        qp = QParam(q)
        mats = dense_generators(t, q)
        eye = np.eye(t.dim, dtype=complex)
        worst = 0.0
        for n in range(5):
            for letters in itertools.product(LETTERS, repeat=n):
                want = eye
                for letter in letters:
                    want = want @ mats[letter]
                got = apply_word_to_columns(letters, t, qp, eye)
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-15

    def test_vector_and_block_shapes(self, qp):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(T_SMALL.dim) + 1j * rng.standard_normal(T_SMALL.dim)
        word = (ALPHA_STAR, BETA, ALPHA)
        want = dense_generators(T_SMALL, qp.q)
        want = want[ALPHA_STAR] @ want[BETA] @ want[ALPHA] @ v
        got = apply_word_to_columns(word, T_SMALL, qp, v)
        assert got.shape == v.shape
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_build_generators_are_the_kron_matrices(self, qp):
        mats = dense_generators(T_SMALL, qp.q)
        a, b = build_generators(T_SMALL, qp)
        assert np.array_equal(a, mats[ALPHA]) and np.array_equal(b, mats[BETA])


class TestSeparableShift:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_batched_shifts_match_letter_by_letter_grids_bitwise(self, q):
        # words up to length 12 leave the small windows through every edge
        qp = QParam(q)
        rng = random.Random(20)
        for t in (TruncationSpec(4, 2), TruncationSpec(5, 3), TruncationSpec(20, 10)):
            words = [tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 12)))
                     for _ in range(300)]
            shifts = rep._word_shifts(words, t, qp)
            for letters, d_fock, d_z, f, lo, hi in zip(words, *shifts):
                want_fock, want_z, want = routes.word_grid(letters, t, q)
                inside = (lo <= np.arange(t.z_count)) & (np.arange(t.z_count) < hi)
                got = np.where(inside, f[:, None], 0.0)
                assert (d_fock, d_z) == (want_fock, want_z)
                assert got.tobytes() == want.tobytes(), letters

    @pytest.mark.parametrize("mutant", ["z interval one step too wide", "top-Fock zero dropped"])
    def test_mutant_shift_fails_the_residual_oracles(self, monkeypatch, qp, mutant):
        t = TruncationSpec(16, 8, 2)
        rng = random.Random(0)
        words = [random_word(rng, max_len=8) for _ in range(60)]
        if mutant == "z interval one step too wide":
            exact = rep._word_shifts

            def widened(words, t, qp):
                d_fock, d_z, f, lo, hi = exact(words, t, qp)
                return d_fock, d_z, f, np.maximum(lo - 1, 0), np.minimum(hi + 1, t.z_count)

            monkeypatch.setattr(rep, "_word_shifts", widened)
        else:
            exact = rep._weights

            def no_top_zero(t, q):
                wa, wb = exact(t, q)
                return np.append(wa[:-1], np.sqrt(1.0 - q ** (2 * t.fock_dim))), wb

            monkeypatch.setattr(rep, "_weights", no_top_zero)
        # paths stay inside at the interior margins, so only the edge defect sees it
        assert max(normal_form_residual(words, t, qp)) <= 1e-10
        with pytest.raises(AssertionError):
            assert_grid_residuals_match_column_block_oracle(qp.q)


class TestRepresentBitwise:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_matches_dense_left_to_right_product(self, q):
        qp = QParam(q)
        rng = random.Random(11)
        for t in (TruncationSpec(8, 4), TruncationSpec(5, 3), TruncationSpec(6, 5)):
            for _ in range(8):
                x = complex_polynomial(rng, qp, max_degree=5, n_terms=4)
                assert represent(x, t).tobytes() == dense_represent(x, t).tobytes()

    def test_dump_bytes_match_dense_product(self, tmp_path):
        qp = QParam(0.5)
        t = TruncationSpec(10, 5)
        rng = random.Random(12)
        xs = [parse("a b' + q a' b b' + b b'", qp)]
        xs += [complex_polynomial(rng, qp, max_degree=4, n_terms=3) for _ in range(3)]
        for x in xs:
            for fmt in ("json", "bin"):
                got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
                save_matrix(represent(x, t), os.fspath(got), fmt)
                save_matrix(dense_represent(x, t), os.fspath(want), fmt)
                assert got.read_bytes() == want.read_bytes()


class TestNormBound:
    def test_bounds_the_two_norm(self):
        rng = np.random.default_rng(3)
        for shape in ((30, 20), (12, 12), (1, 9), (7, 1)):
            for _ in range(10):
                a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                assert norm_bound(a) >= np.linalg.norm(a, 2) * (1 - 1e-14)

    def test_exact_on_weighted_partial_permutations(self):
        rng = np.random.default_rng(4)
        for rows, cols in ((20, 20), (25, 14), (9, 30)):
            for _ in range(10):
                a = np.zeros((rows, cols), dtype=complex)
                n = rng.integers(1, min(rows, cols) + 1)
                r = rng.permutation(rows)[:n]
                c = rng.permutation(cols)[:n]
                a[r, c] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                assert norm_bound(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-14)

    def test_zero_and_empty(self):
        assert norm_bound(np.zeros((4, 3))) == 0.0
        assert norm_bound(np.zeros((0, 3))) == 0.0


class TestWeightMutation:
    """A relative 1e-9 error in one weight must fail both residual checks."""

    def test_perturbed_weight_is_caught(self, monkeypatch, qp):
        t = TruncationSpec(16, 8, 2)
        rng = random.Random(0)
        words = [random_word(rng, max_len=8) for _ in range(60)]
        assert max(relation_residuals(t, qp).values()) <= 1e-12
        assert max(normal_form_residual(words, t, qp)) <= 1e-10
        exact = rep._weights

        def perturbed(t, q):
            wa, wb = exact(t, q)
            wa = wa.copy()
            wa[3] *= 1.0 + 1e-9
            return wa, wb

        monkeypatch.setattr(rep, "_weights", perturbed)
        assert max(relation_residuals(t, qp).values()) > 1e-12
        assert max(normal_form_residual(words, t, qp)) > 1e-10


class TestOperatorNorm:
    def test_against_exact_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((30, 20)) + 1j * rng.standard_normal((30, 20))
            assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((5, 5))) == 0.0


class TestMatrixDump:
    def test_json_roundtrip(self, qp, tmp_path):
        mat = represent(parse("a b'", qp), T_SMALL)
        path = os.fspath(tmp_path / "m.json")
        save_matrix(mat, path, "json")
        assert np.allclose(load_matrix(path, "json"), mat)

    def test_binary_roundtrip_and_header(self, qp, tmp_path):
        mat = represent(parse("b + i a'", qp), T_SMALL)
        path = os.fspath(tmp_path / "m.bin")
        save_matrix(mat, path, "bin")
        with open(path, "rb") as fh:
            header = fh.read(16)
        assert len(header) == 16
        assert int.from_bytes(header[:4], "little") == T_SMALL.dim
        assert header[4:] == b"\x00" * 12
        assert np.array_equal(load_matrix(path, "bin"), mat)
        assert os.path.getsize(path) == 16 + 16 * T_SMALL.dim ** 2
