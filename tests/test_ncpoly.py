import functools
import math
import random
from fractions import Fraction

import pytest

import oracle
from qtriple import ncpoly
from qtriple.ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR,
    CanonicalMonomial, DegreeOverflowError, NCPolynomial, ParityError,
    QParam, Word, adjoint, module_decompose, monomials_up_to, mul,
    normalize, random_polynomial, random_word, z2_act, z2_project,
)


def gen(qp, letter):
    return NCPolynomial.generator(qp, letter)


def mono(qp, a, b, bs, c=1.0):
    return NCPolynomial.monomial(qp, CanonicalMonomial(a, b, bs), c)


STARRED = {ALPHA: ALPHA_STAR, ALPHA_STAR: ALPHA, BETA: BETA_STAR, BETA_STAR: BETA}
ORACLE_TOL = 1e-12


def oracle_gap(got, want):
    """Gap of ``got`` from the rewriter's ``want``, relative to the largest
    coefficient of ``want``; inf when the supports differ."""
    if got.terms.keys() != want.terms.keys():
        return math.inf
    if not want.terms:
        return 0.0
    return got.max_coeff_diff(want) / max(abs(c) for c in want.terms.values())


def product_oracle_gap(qp, max_degree):
    """Worst gap of mul, and of normalize on the concatenated letters, from
    the rewriter's normal form, over every pair of canonical monomials of
    degree <= max_degree."""
    mons = monomials_up_to(max_degree)
    polys = [NCPolynomial.monomial(qp, m) for m in mons]
    worst = 0.0
    for m1, x in zip(mons, polys):
        for m2, y in zip(mons, polys):
            word = Word(m1.letters() + m2.letters())
            want = oracle.normalize(word, qp)
            worst = max(worst, oracle_gap(mul(x, y), want), oracle_gap(normalize(word, qp), want))
    return worst


EXACT_Q = Fraction(1, 2)


def decode(text):
    """Letters of a word written with a = a, A = a*, b = b, B = b*."""
    return tuple("aAbB".index(ch) for ch in text)


@functools.cache
def exact_rewrite(letters):
    return oracle.rewrite(letters, EXACT_Q)


def exact_gap(qp, letters, got):
    """Gap of ``got`` from the exact rewrite at q = 1/2, pruned at ``qp.prune``,
    relative to its largest coefficient; inf when the supports differ."""
    exact = exact_rewrite(letters)
    kept = {m: c for m, c in exact.items() if abs(c) > qp.prune}
    if got.terms.keys() != kept.keys():
        return math.inf
    if not kept:
        return 0.0
    scale = max(abs(c) for c in kept.values())
    return float(max(abs(got.coeff(m) - complex(c)) for m, c in kept.items()) / scale)


def long_random_words(seed, count):
    rng = random.Random(seed)
    return [tuple(rng.choice(ncpoly.LETTERS) for _ in range(rng.randint(16, 24)))
            for _ in range(count)]


def contraction_exact(q, k, alpha_first):
    """x-coefficients of a^k a*^k = prod_{i=1..k} (1 - q^(2i) x) (alpha_first)
    or a*^k a^k = prod_{i<k} (1 - q^(-2i) x), expanded in exact arithmetic."""
    roots = [q ** (2 * i) for i in range(1, k + 1)] if alpha_first else \
        [q ** (-2 * i) for i in range(k)]
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


class TestQParam:
    def test_range(self):
        QParam(0.5)
        with pytest.raises(ValueError):
            QParam(0.0)
        with pytest.raises(ValueError):
            QParam(1.0)
        with pytest.raises(ValueError):
            QParam(-0.2)

    def test_classical_mode_admits_q_one(self):
        qp = QParam(1.0, classical=True)
        # at q = 1 the generators commute up to the unitarity relations
        left = normalize(Word((BETA, ALPHA)), qp)
        right = normalize(Word((ALPHA, BETA)), qp)
        assert left == right


class TestNormalize:
    def test_beta_alpha_swaps_with_inverse_q(self, qp):
        out = normalize(Word((BETA, ALPHA)), qp)
        assert out == mono(qp, 1, 1, 0, 1.0 / qp.q)

    def test_alpha_star_alpha_contracts(self, qp):
        out = normalize(Word((ALPHA_STAR, ALPHA)), qp)
        assert out == NCPolynomial.one(qp) - mono(qp, 0, 1, 1)

    def test_alpha_alpha_star_contracts(self, qp):
        out = normalize(Word((ALPHA, ALPHA_STAR)), qp)
        assert out == NCPolynomial.one(qp) - mono(qp, 0, 1, 1, qp.q ** 2)

    def test_beta_star_beta_reorders(self, qp):
        assert normalize(Word((BETA_STAR, BETA)), qp) == mono(qp, 0, 1, 1)

    @pytest.mark.parametrize("letters,coeff,expected", [
        ((BETA, ALPHA_STAR), 1.0, (-1, 1, 0)),
        ((BETA_STAR, ALPHA_STAR), 1.0, (-1, 0, 1)),
    ])
    def test_starred_transpositions_gain_q(self, qp, letters, coeff, expected):
        out = normalize(Word(letters), qp)
        assert out == mono(qp, *expected, qp.q)

    def test_idempotent_on_canonical_monomials(self, qp):
        for m in monomials_up_to(5):
            again = normalize(Word(m.letters()), qp)
            assert again == NCPolynomial.monomial(qp, m)

    def test_word_coefficient_carried(self, qp):
        out = normalize(Word((BETA, ALPHA), 2.0j), qp)
        assert out == mono(qp, 1, 1, 0, 2.0j / qp.q)

    def test_empty_word_is_scalar(self, qp):
        assert normalize(Word((), 3.0), qp) == 3.0 * NCPolynomial.one(qp)

    def test_word_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            Word((0, 7))

    def test_termination_step_bound(self, qp):
        # every rewrite shrinks (mixed alpha pairs, inversion count); the
        # oracle's step count stays below length^3 on random words.  The
        # product fold makes at most one monomial product per (run, term),
        # and every term shares the word's alpha charge, so fewer than
        # length^2 products.
        rng = random.Random(7)
        for _ in range(400):
            w = random_word(rng, max_len=12, min_len=2)
            stats, oracle_stats = {}, {}
            normalize(w, qp, stats=stats)
            oracle.rewrite(w.letters, qp.q, stats=oracle_stats)
            assert stats["steps"] <= len(w.letters) ** 2
            assert oracle_stats["steps"] <= len(w.letters) ** 3

    def test_confluence_proxy(self, qp_any):
        # normalizing factors then multiplying agrees with the rewriter's
        # normal form of the concatenation, for random free words
        rng = random.Random(11)
        for _ in range(60):
            u = random_word(rng, max_len=6)
            v = random_word(rng, max_len=6)
            joint = oracle.normalize(Word(u.letters + v.letters), qp_any)
            split = mul(normalize(u, qp_any), normalize(v, qp_any))
            assert joint.allclose(split, 1e-9)


class TestMul:
    def test_alpha_beta_already_canonical(self, qp):
        assert mul(gen(qp, ALPHA), gen(qp, BETA)) == mono(qp, 1, 1, 0)

    def test_beta_alpha_picks_up_inverse_q(self, qp):
        assert mul(gen(qp, BETA), gen(qp, ALPHA)) == mono(qp, 1, 1, 0, 1.0 / qp.q)

    def test_unit_law_random(self, qp):
        rng = random.Random(3)
        one = NCPolynomial.one(qp)
        for _ in range(20):
            x = random_polynomial(rng, qp, max_degree=5, n_terms=4)
            assert mul(x, one) == x
            assert mul(one, x) == x

    def test_bilinearity(self, qp):
        rng = random.Random(5)
        for _ in range(20):
            x = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            y = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            z = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            assert mul(x + y, z).allclose(mul(x, z) + mul(y, z), 1e-10)
            assert mul(z, x + y).allclose(mul(z, x) + mul(z, y), 1e-10)

    def test_associativity_random(self, qp):
        rng = random.Random(9)
        for _ in range(15):
            x = random_polynomial(rng, qp, max_degree=3, n_terms=2)
            y = random_polynomial(rng, qp, max_degree=3, n_terms=2)
            z = random_polynomial(rng, qp, max_degree=3, n_terms=2)
            assert mul(mul(x, y), z).allclose(mul(x, mul(y, z)), 1e-9)

    def test_prunes_only_the_result(self):
        # b^25 a* = q^25 a* b^25: the monomial product's 3.4e-18 at q = 0.2
        # is below the prune, the product's 3.4e-6 is not
        qp = QParam(0.2)
        got = mul(mono(qp, 0, 25, 0, 1e12), gen(qp, ALPHA_STAR))
        assert got == normalize(Word((BETA,) * 25 + (ALPHA_STAR,), 1e12), qp)
        assert got.coeff(CanonicalMonomial(-1, 25, 0)) == pytest.approx(3.3554432e-6, rel=1e-12)
        # an intermediate product is itself a result, and is pruned
        assert mul(mono(qp, 0, 25, 0), gen(qp, ALPHA_STAR)).is_zero()

    def test_degree_overflow_guard(self):
        qp = QParam(0.5, max_degree=6)
        x = mono(qp, 4, 0, 0)
        with pytest.raises(DegreeOverflowError):
            mul(x, x)

    def test_mixed_parameters_rejected(self, qp):
        other = QParam(0.3)
        with pytest.raises(ValueError):
            mul(NCPolynomial.one(qp), NCPolynomial.one(other))


class TestClosedFormAgainstRewriter:
    """mul and adjoint run in closed form; the free-word rewriter is their oracle."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_product_of_every_monomial_pair(self, q):
        assert product_oracle_gap(QParam(q), 6) <= ORACLE_TOL

    def test_product_classical(self):
        assert product_oracle_gap(QParam(1.0, classical=True), 4) <= ORACLE_TOL

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_adjoint_of_every_monomial(self, q):
        qp = QParam(q)
        for m in monomials_up_to(8):
            starred = tuple(STARRED[l] for l in reversed(m.letters()))
            got = adjoint(NCPolynomial.monomial(qp, m))
            assert oracle_gap(got, oracle.normalize(Word(starred), qp)) <= ORACLE_TOL, m

    @pytest.mark.parametrize("alpha_first", [True, False])
    def test_alpha_contractions_match_exact_products(self, alpha_first):
        q = Fraction(1, 2)
        qp = QParam(float(q))
        for k in range(1, 13):
            left, right = (k, -k) if alpha_first else (-k, k)
            got = mul(mono(qp, left, 0, 0), mono(qp, right, 0, 0))
            exact = contraction_exact(q, k, alpha_first)
            kept = {CanonicalMonomial(0, t, t): c for t, c in enumerate(exact)
                    if abs(c) > qp.prune}
            assert got.terms.keys() == kept.keys(), k
            for mon, c in kept.items():
                assert abs(got.coeff(mon) - float(c)) <= ORACLE_TOL * abs(float(c)), (k, mon)

    def test_wrong_contraction_exponent_is_caught(self, monkeypatch):
        # both contraction polynomials with one q power too many on their x term
        true_contraction = ncpoly._contraction

        def mutant(q, c, alpha_first):
            coeffs = list(true_contraction(q, c, alpha_first))
            coeffs[1] *= q
            return tuple(coeffs)

        qp = QParam(0.5)
        assert product_oracle_gap(qp, 3) <= ORACLE_TOL
        monkeypatch.setattr(ncpoly, "_contraction", mutant)
        assert product_oracle_gap(qp, 3) > ORACLE_TOL

    def test_wrong_passing_exponent_is_caught(self, monkeypatch):
        # every nontrivial passing factor (b's past alpha, x^t past a remainder)
        # one power of q off
        monkeypatch.setattr(ncpoly, "_qpow", lambda q, e: q ** (e + 1) if e else 1.0)
        assert product_oracle_gap(QParam(0.5), 3) > ORACLE_TOL


class TestExactOracle:
    """normalize at q = 0.5 against the rewriter run on Fraction(1, 2)."""

    @pytest.mark.parametrize("text", [
        # words of the algebra benchmark (seed 1, word 63; seed 3, word 46)
        # that a letter-by-letter fold through mul, pruning every
        # intermediate product, gets wrong
        "aBABbAaaaBBAAABbAAbabaB",
        "BBBbBABBAbAbAbbAAaaBAaaA",
    ])
    def test_words_an_intermediate_pruning_fold_gets_wrong(self, text):
        qp = QParam(float(EXACT_Q))
        letters = decode(text)
        assert exact_gap(qp, letters, normalize(Word(letters), qp)) <= ORACLE_TOL

    def test_random_long_words(self):
        qp = QParam(float(EXACT_Q))
        for letters in long_random_words(29, 200):
            assert exact_gap(qp, letters, normalize(Word(letters), qp)) <= ORACLE_TOL, letters

    def test_intermediate_pruning_is_caught(self, monkeypatch):
        # every monomial product pruned at qp.prune, as a fold through mul
        # would do: a dropped coefficient below 1e-14 can be scaled up by a
        # later q^(-k) factor
        qp = QParam(float(EXACT_Q))
        true_product = ncpoly._monomial_product

        def pruning(q, m1, m2):
            return [(m, c) for m, c in true_product(q, m1, m2) if abs(c) > qp.prune]

        monkeypatch.setattr(ncpoly, "_monomial_product", pruning)
        worst = max(exact_gap(qp, letters, normalize(Word(letters), qp))
                    for letters in long_random_words(29, 200))
        assert worst > ORACLE_TOL

    def test_random_word_split_defect(self):
        # algebra benchmark, seed 9, word 49, cut at 19: the whole word
        # normalizes exactly; normalize(u) prunes two exact coefficients
        # below 1e-14, and its product with normalize(v) scales the larger
        # one, 1.7e-16, by about q^-26 to a 1.48e-8 coefficient error
        letters = decode("BaaAAaBAAAbaBAABABAaaaAb")
        u, v = letters[:19], letters[19:]
        qp = QParam(float(EXACT_Q))
        whole = normalize(Word(letters), qp)
        assert exact_gap(qp, letters, whole) <= ORACLE_TOL
        split = mul(normalize(Word(u), qp), normalize(Word(v), qp))
        assert split.max_coeff_diff(whole) == pytest.approx(1.48e-8, rel=0.01)
        pruned = sorted(abs(float(c)) for m, c in exact_rewrite(u).items()
                        if m not in normalize(Word(u), qp).terms)
        assert pruned == [pytest.approx(6.78e-21, rel=0.01), pytest.approx(1.68e-16, rel=0.01)]
        # with nothing pruned the split route is exact again
        keep_all = QParam(float(EXACT_Q), prune=0.0)
        split = mul(normalize(Word(u), keep_all), normalize(Word(v), keep_all))
        assert exact_gap(qp, letters, NCPolynomial(qp, split.terms)) <= ORACLE_TOL


class TestAdjoint:
    def test_generators(self, qp):
        assert adjoint(gen(qp, ALPHA)) == gen(qp, ALPHA_STAR)
        assert adjoint(gen(qp, BETA)) == gen(qp, BETA_STAR)

    def test_conjugate_linear(self, qp):
        c = 2.0 - 3.0j
        assert adjoint(c * gen(qp, BETA)) == c.conjugate() * gen(qp, BETA_STAR)

    def test_alpha_beta_adjoint_value(self, qp):
        # (ab)* = b*a* = q a*b*
        assert adjoint(mono(qp, 1, 1, 0)) == mono(qp, -1, 0, 1, qp.q)

    def test_involutive(self, qp):
        rng = random.Random(13)
        for _ in range(25):
            x = random_polynomial(rng, qp, max_degree=4, n_terms=4)
            assert adjoint(adjoint(x)).allclose(x, 1e-11)

    def test_anti_multiplicative(self, qp):
        rng = random.Random(17)
        for _ in range(20):
            x = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            y = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            assert adjoint(mul(x, y)).allclose(mul(adjoint(y), adjoint(x)), 1e-9)


class TestSignFlip:
    def test_generator_flips(self, qp):
        assert z2_act(gen(qp, ALPHA)) == -gen(qp, ALPHA)
        assert z2_act(gen(qp, BETA)) == -gen(qp, BETA)

    def test_even_monomial_fixed(self, qp):
        ab = mono(qp, 1, 1, 0)
        assert z2_act(ab) == ab

    def test_involution(self, qp):
        rng = random.Random(19)
        for _ in range(25):
            x = random_polynomial(rng, qp, max_degree=5, n_terms=4)
            assert z2_act(z2_act(x)) == x

    def test_algebra_automorphism(self, qp):
        rng = random.Random(23)
        for _ in range(20):
            x = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            y = random_polynomial(rng, qp, max_degree=3, n_terms=3)
            assert z2_act(mul(x, y)).allclose(mul(z2_act(x), z2_act(y)), 1e-10)

    def test_commutes_with_adjoint(self, qp):
        rng = random.Random(29)
        for _ in range(20):
            x = random_polynomial(rng, qp, max_degree=4, n_terms=4)
            assert z2_act(adjoint(x)).allclose(adjoint(z2_act(x)), 1e-11)


class TestParityProjection:
    def test_split_example(self, qp):
        x = gen(qp, ALPHA) + mono(qp, 1, 1, 0)
        assert z2_project(x, "even") == mono(qp, 1, 1, 0)
        assert z2_project(x, "odd") == gen(qp, ALPHA)

    def test_odd_monomial_has_no_even_part(self, qp):
        assert z2_project(gen(qp, ALPHA), "even").is_zero()

    def test_even_part_is_fixed_point(self, qp):
        rng = random.Random(31)
        for _ in range(25):
            x = random_polynomial(rng, qp, max_degree=5, n_terms=5)
            even = z2_project(x, "even")
            assert z2_act(even) == even
            assert (z2_project(x, "even") + z2_project(x, "odd")) == x

    def test_average_formula(self, qp):
        rng = random.Random(37)
        for _ in range(10):
            x = random_polynomial(rng, qp, max_degree=5, n_terms=5)
            assert z2_project(x, "even").allclose((x + z2_act(x)) * 0.5, 1e-13)


class TestMonomialEnumeration:
    def test_memoized_tuple_in_degree_order(self):
        expected = [CanonicalMonomial(a, n, d - abs(a) - n)
                    for d in range(5) for a in range(-d, d + 1) for n in range(d - abs(a) + 1)]
        assert monomials_up_to(4) == tuple(expected)
        assert monomials_up_to(4) is monomials_up_to(4)
        assert monomials_up_to(4, parity="odd") == tuple(m for m in expected if m.degree % 2)

    def test_random_polynomial_stream(self, qp):
        # the draws of seed 7 when the pool was a list rebuilt on every call
        pinned = {
            None: {(0, 0, 3): 0.8957307212181265 - 0.21035300715365302j,
                   (0, 1, 0): -0.8551274266649145 + 0.0717640086133784j,
                   (0, 3, 0): 0.16557601180671022 + 0.8194081262862045j},
            "even": {(0, 0, 4): 0.8957307212181265 - 0.21035300715365302j,
                     (-1, 1, 0): -0.8551274266649145 + 0.0717640086133784j,
                     (0, 3, 1): 0.16557601180671022 + 0.8194081262862045j},
        }
        for parity, want in pinned.items():
            got = random_polynomial(random.Random(7), qp, max_degree=4, n_terms=3, parity=parity)
            assert {(m.alpha, m.beta, m.beta_star): c for m, c in got.terms.items()} == want


class TestModuleDecompose:
    def test_single_generator(self, qp):
        pairs = module_decompose(gen(qp, ALPHA))
        assert len(pairs) == 1
        factor, letter = pairs[0]
        assert letter == ALPHA and factor == NCPolynomial.one(qp)

    def test_even_input_rejected(self, qp):
        with pytest.raises(ParityError):
            module_decompose(mono(qp, 1, 1, 2))  # degree 4

    def test_alpha_squared_beta(self, qp):
        # the peeled factor must reassemble exactly under mul
        pairs = module_decompose(mono(qp, 2, 1, 0))
        assert len(pairs) == 1
        factor, letter = pairs[0]
        assert letter == BETA
        assert factor == mono(qp, 2, 0, 0)
        assert mul(factor, gen(qp, letter)) == mono(qp, 2, 1, 0)

    def test_roundtrip_exhaustive_odd_monomials(self, qp):
        for m in monomials_up_to(8, parity="odd"):
            x = NCPolynomial.monomial(qp, m)
            rebuilt = NCPolynomial.zero(qp)
            for factor, letter in module_decompose(x):
                assert all(f.degree % 2 == 0 for f in factor.terms)
                rebuilt = rebuilt + mul(factor, gen(qp, letter))
            assert rebuilt == x

    def test_random_odd_polynomials(self, qp):
        rng = random.Random(41)
        for _ in range(20):
            x = random_polynomial(rng, qp, max_degree=5, n_terms=4, parity="odd")
            rebuilt = NCPolynomial.zero(qp)
            for factor, letter in module_decompose(x):
                rebuilt = rebuilt + mul(factor, gen(qp, letter))
            assert rebuilt.allclose(x, 1e-13)


class TestPolynomialBasics:
    def test_zero_has_empty_support(self, qp):
        z = gen(qp, ALPHA) - gen(qp, ALPHA)
        assert z.is_zero() and not z.terms

    def test_prune_threshold(self):
        qp = QParam(0.5, prune=1e-6)
        tiny = NCPolynomial(qp, {CanonicalMonomial(0, 0, 0): 1e-8})
        assert tiny.is_zero()

    def test_json_roundtrip(self, qp):
        rng = random.Random(43)
        x = random_polynomial(rng, qp, max_degree=4, n_terms=5)
        data = x.to_json_dict()
        assert set(data) == {"q", "terms"}
        assert all(set(t) == {"a", "b", "bs", "re", "im"} for t in data["terms"])
        back = NCPolynomial.from_json_dict(data, qp)
        assert back == x

    def test_monomial_is_the_tuple_of_its_exponents(self, qp):
        m = CanonicalMonomial(-2, 1, 3)
        assert m == (-2, 1, 3) and hash(m) == hash((-2, 1, 3))
        assert (m.alpha, m.beta, m.beta_star) == tuple(m) and str(m) == "a*^2 b b*^3"
        assert sorted([CanonicalMonomial(1, 0, 0), CanonicalMonomial(-1, 2, 0),
                       CanonicalMonomial(-1, 0, 2)]) == [(-1, 0, 2), (-1, 2, 0), (1, 0, 0)]
        for bad in ((0, -1, 0), (2, 0, -3)):
            with pytest.raises(ValueError, match="nonnegative"):
                CanonicalMonomial(*bad)
        with pytest.raises(AttributeError):
            m.alpha = 1
        # the products build their monomials past the constructor's check
        word = Word((BETA_STAR, ALPHA, BETA, ALPHA_STAR, ALPHA_STAR))
        assert all(type(mon) is CanonicalMonomial for mon in normalize(word, qp).terms)

    def test_monomial_bookkeeping(self):
        m = CanonicalMonomial(-2, 1, 3)
        assert m.degree == 6
        assert m.parity == 1
        assert m.charges == (-2, -2)
        assert CanonicalMonomial(1, 0, 0).parity == -1
