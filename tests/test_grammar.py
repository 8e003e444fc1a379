import pytest

from qtriple.grammar import ParseError, _tokenize, parse
from qtriple.ncpoly import ALPHA, ALPHA_STAR, BETA, BETA_STAR, CanonicalMonomial, NCPolynomial


def mono(qp, a, b, bs, c=1.0):
    return NCPolynomial.monomial(qp, CanonicalMonomial(a, b, bs), c)


def test_defining_relation_cancels(qp):
    assert parse("a b - q b a", qp).is_zero()
    assert parse("a*b - q*b*a", qp).is_zero()  # explicit stars multiply the same way


def test_unit(qp):
    assert parse("1", qp) == NCPolynomial.one(qp)


def test_beta_square_is_canonical(qp):
    assert parse("b^2", qp) == mono(qp, 0, 2, 0)


def test_primes_are_adjoints(qp):
    assert parse("a'", qp) == mono(qp, -1, 0, 0)
    # aa* + bb* reduces to 1 + (1-q^2) bb*, not to 1
    out = parse("a*a' + b*b'", qp)
    assert out == NCPolynomial.one(qp) + mono(qp, 0, 1, 1, 1.0 - qp.q ** 2)


def test_unicode_aliases(qp):
    assert parse("α", qp) == parse("a", qp)
    assert parse("β'", qp) == parse("b'", qp)
    assert parse("αβ - qβα", qp).is_zero()


def test_juxtaposition_and_whitespace(qp):
    assert parse("2ab^2", qp) == parse("2 * a * b^2", qp)
    assert parse("  a   b ", qp) == parse("a*b", qp)


def test_complex_literals(qp):
    assert parse("2i", qp) == 2j * NCPolynomial.one(qp)
    assert parse("1 + 2j", qp) == (1 + 2j) * NCPolynomial.one(qp)
    assert parse("1.5e-1", qp) == 0.15 * NCPolynomial.one(qp)


def test_q_constant_and_negative_powers(qp):
    assert parse("q^2", qp) == (qp.q ** 2) * NCPolynomial.one(qp)
    assert parse("q^-1 a b", qp) == mono(qp, 1, 1, 0, 1.0 / qp.q)


def test_parenthesized_powers(qp):
    assert parse("(a + a')^2", qp) == parse("a^2 + a a' + a' a + a'^2", qp)


def test_parse_always_normalizes(qp):
    assert parse("b a", qp) == mono(qp, 1, 1, 0, 1.0 / qp.q)
    assert parse("a' a + b' b", qp) == NCPolynomial.one(qp)


def test_syntax_error_carries_position(qp):
    with pytest.raises(ParseError) as err:
        parse("a + $", qp)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("a +", qp)
    with pytest.raises(ParseError):
        parse("(a", qp)


def test_generator_negative_power_rejected(qp):
    with pytest.raises(ParseError):
        parse("a^-1", qp)


def test_exponent_overflow(qp):
    with pytest.raises(ParseError):
        parse(f"b^{qp.max_degree + 1}", qp)


def test_fractional_exponent_rejected(qp):
    with pytest.raises(ParseError):
        parse("b^1.5", qp)


# (kind, value, position) of every token, END included
@pytest.mark.parametrize("text, tokens", [
    ("α", [("GEN", ALPHA, 0), ("END", None, 1)]),
    ("β'", [("GEN", BETA_STAR, 0), ("END", None, 2)]),
    ("a'b'", [("GEN", ALPHA_STAR, 0), ("GEN", BETA_STAR, 2), ("END", None, 4)]),
    ("2ab^2", [("NUM", 2.0, 0), ("GEN", ALPHA, 1), ("GEN", BETA, 2), ("CARET", None, 3),
               ("NUM", 2.0, 4), ("END", None, 5)]),
    ("2.", [("NUM", 2.0, 0), ("END", None, 2)]),
    (".5e-3", [("NUM", 0.0005, 0), ("END", None, 5)]),
    ("1e5", [("NUM", 100000.0, 0), ("END", None, 3)]),
    ("q^-1", [("Q", None, 0), ("CARET", None, 1), ("OP", "-", 2), ("NUM", 1.0, 3),
              ("END", None, 4)]),
    ("1 + 2j", [("NUM", 1.0, 0), ("OP", "+", 2), ("NUM", 2.0, 4), ("IMAG", None, 5),
                ("END", None, 6)]),
])
def test_tokens(text, tokens):
    assert [(t.kind, t.value, t.pos) for t in _tokenize(text)] == tokens


@pytest.mark.parametrize("text, message, position", [
    ("a + $", "unexpected character '$' (at position 4)", 4),
    (".", "unexpected character '.' (at position 0)", 0),
    ("1e", "unexpected character 'e' (at position 1)", 1),
    ("x", "unexpected character 'x' (at position 0)", 0),
])
def test_token_errors(text, message, position):
    with pytest.raises(ParseError) as err:
        _tokenize(text)
    assert str(err.value) == message and err.value.position == position
