"""Expression grammar for algebra elements.

Grammar (EBNF, whitespace separates tokens and is otherwise ignored):

    expr      = term { ("+" | "-") term } ;
    term      = [ "-" | "+" ] factor { [ "*" ] factor } ;   (* juxtaposition multiplies *)
    factor    = atom [ "^" exponent ] ;
    atom      = generator | "q" | imaginary | number | "(" expr ")" ;
    generator = ( "a" | "b" | "α" | "β" ) [ "'" ] ;
    imaginary = "i" | "j" ;
    exponent  = [ "-" ] digits ;

The ASCII adjoints are written with a prime (a', b'); the unicode letters
α, β (and α', β') are accepted as aliases.  ``*`` is always multiplication.
``q`` denotes the numeric deformation parameter bound at parse time.
Negative exponents are only allowed on scalar subexpressions (q, numbers);
generator powers beyond the configured max degree are rejected.

Example:  parse("a b - q b a", qp)  is the zero polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .ncpoly import LETTERS, UNIT_MONOMIAL, NCPolynomial, QParam, mul

__all__ = ["parse", "ParseError"]


class ParseError(ValueError):
    """Syntax error with the offending position in the source string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str       # GEN NUM IMAG Q OP LPAREN RPAREN CARET END
    value: object
    pos: int


# One named group per token kind, tried in order after any whitespace; BAD
# takes any other character.  Trailing whitespace matches nothing.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<GEN>[abαβ]'?)
  | (?P<Q>q)
  | (?P<IMAG>[ij])
  | (?P<NUM>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<OP>[-+*])
  | (?P<CARET>\^)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<BAD>\S)
)""", re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        lexeme, pos = m.group(kind), m.start(kind)
        if kind == "GEN":
            # LETTERS is (a, a*, b, b*)
            tokens.append(_Token(kind, LETTERS[2 * (lexeme[0] in "bβ") + len(lexeme) - 1], pos))
        elif kind == "NUM":
            tokens.append(_Token(kind, float(lexeme), pos))
        elif kind == "OP":
            tokens.append(_Token(kind, lexeme, pos))
        elif kind == "BAD":
            raise ParseError(f"unexpected character {lexeme!r}", pos)
        else:
            tokens.append(_Token(kind, None, pos))
    tokens.append(_Token("END", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], qp: QParam):
        self.tokens = tokens
        self.i = 0
        self.qp = qp

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind}", tok.pos)
        return tok

    # expr = term { (+|-) term }
    def expr(self) -> NCPolynomial:
        acc = self.term()
        while self.peek().kind == "OP" and self.peek().value in "+-":
            op = self.next().value
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    # term = [-|+] factor { [*] factor }
    def term(self) -> NCPolynomial:
        sign = 1.0
        while self.peek().kind == "OP" and self.peek().value in "+-":
            if self.next().value == "-":
                sign = -sign
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "*":
                self.next()
                acc = mul(acc, self.factor())
            elif tok.kind in ("GEN", "NUM", "IMAG", "Q", "LPAREN"):
                acc = mul(acc, self.factor())
            else:
                break
        return sign * acc

    # factor = atom [^ exponent]
    def factor(self) -> NCPolynomial:
        base = self.atom()
        if self.peek().kind != "CARET":
            return base
        caret = self.next()
        neg = False
        if self.peek().kind == "OP" and self.peek().value == "-":
            self.next()
            neg = True
        tok = self.expect("NUM")
        if tok.value != int(tok.value):
            raise ParseError("exponent must be an integer", tok.pos)
        exp = int(tok.value)
        if exp > self.qp.max_degree:
            raise ParseError(f"exponent {exp} exceeds max degree {self.qp.max_degree}", tok.pos)
        if neg:
            scalar = _as_scalar(base)
            if scalar is None:
                raise ParseError("negative exponents only apply to scalars", caret.pos)
            return NCPolynomial.one(self.qp) * (scalar ** (-exp))
        acc = NCPolynomial.one(self.qp)
        for _ in range(exp):
            acc = mul(acc, base)
        return acc

    def atom(self) -> NCPolynomial:
        tok = self.next()
        if tok.kind == "GEN":
            return NCPolynomial.generator(self.qp, tok.value)
        if tok.kind == "NUM":
            return NCPolynomial.one(self.qp) * tok.value
        if tok.kind == "IMAG":
            return NCPolynomial.one(self.qp) * 1j
        if tok.kind == "Q":
            return NCPolynomial.one(self.qp) * self.qp.q
        if tok.kind == "LPAREN":
            inner = self.expr()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"unexpected token {tok.kind}", tok.pos)


def _as_scalar(p: NCPolynomial):
    if p.is_zero():
        return 0.0 + 0.0j
    if set(p.terms) == {UNIT_MONOMIAL}:
        return p.terms[UNIT_MONOMIAL]
    return None


def parse(text: str, qp: QParam) -> NCPolynomial:
    """Parse an expression into its (always normalized) canonical form.

    As in `normalize` and `mul`, only the result is pruned: the expression
    is evaluated with nothing pruned, since a small intermediate product can
    be scaled up by a later factor, and the result takes ``qp``'s threshold.
    """
    parser = _Parser(_tokenize(text), replace(qp, prune=0.0))
    result = parser.expr()
    end = parser.next()
    if end.kind != "END":
        raise ParseError(f"trailing input starting with {end.kind}", end.pos)
    return NCPolynomial(qp, result.terms)
