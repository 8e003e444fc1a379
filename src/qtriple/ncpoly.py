"""Canonical forms in the q-deformed unitary algebra on generators a, b.

The *-algebra is generated by two elements ``a`` ("alpha") and ``b`` ("beta")
subject to

    a* a + b* b = 1          a a* + q^2 b b* = 1
    a b  = q b a             a b* = q b* a
    b* b = b b*

with a fixed real deformation parameter 0 < q < 1.  Every element reduces to
a unique linear combination of the canonical monomials

    a^k  b^n b*^m        (k >= 0)
    a*^k b^n b*^m        (k >= 1)

The product and the involution act on these monomials in closed form, with
x = b b* central in the b-part:

    b^n b*^m a^k = q^(-(n+m)k) a^k b^n b*^m     (a*^k: k counts negative)
    a^c a*^c = prod_{i=1..c} (1 - q^(2i) x)     a*^c a^c = prod_{i<c} (1 - q^(-2i) x)
    x^t a^d = q^(-2td) a^d x^t                  x^t a*^d = q^(2td) a*^d x^t
    (a^k b^n b*^m)* = q^((n+m)k) a^(-k) b^m b*^n

so a monomial product costs O(degree).  A free word is reduced by folding
this product over its maximal canonical runs.  The module also holds the
sign flip g: a -> -a, b -> -b, whose fixed points form the even (quantum
SO(3)) subalgebra.

The closed forms are checked in the tests against a free-word rewriting
engine built from the relations and their adjoints (b a -> q^-1 a b,
a* a -> 1 - b* b, ...), run on floats and, at rational q, on exact
fractions; the faithful representation in `rep` checks normal forms
independently.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "ALPHA", "ALPHA_STAR", "BETA", "BETA_STAR", "LETTERS", "UNIT_MONOMIAL",
    "QParam", "CanonicalMonomial", "Word", "NCPolynomial",
    "normalize", "mul", "adjoint", "z2_act", "z2_project",
    "module_decompose", "monomials_up_to", "random_word", "random_polynomial",
    "DegreeOverflowError", "ParityError",
]

# letter codes for free words
ALPHA, ALPHA_STAR, BETA, BETA_STAR = 0, 1, 2, 3
LETTERS = (ALPHA, ALPHA_STAR, BETA, BETA_STAR)

LETTER_NAMES = {ALPHA: "a", ALPHA_STAR: "a*", BETA: "b", BETA_STAR: "b*"}


class DegreeOverflowError(ValueError):
    """Raised when a product or parsed power exceeds the configured degree cap."""


class ParityError(ValueError):
    """Raised when an operation requires definite (odd) parity input."""


@dataclass(frozen=True)
class QParam:
    """Deformation parameter plus the numeric policy attached to it.

    ``prune`` is the absolute magnitude below which coefficients are dropped
    after every normalization, ``max_degree`` caps monomial degrees.  q = 1 is
    the commutative cross-check regime and must be requested explicitly.
    """

    q: float
    classical: bool = False
    prune: float = 1e-14
    max_degree: int = 64

    def __post_init__(self):
        if self.classical:
            if not 0.0 < self.q <= 1.0:
                raise ValueError(f"need 0 < q <= 1 in classical mode, got {self.q}")
        elif not 0.0 < self.q < 1.0:
            raise ValueError(f"deformation parameter must satisfy 0 < q < 1, got {self.q}")
        if self.prune < 0.0:
            raise ValueError("prune threshold must be nonnegative")
        if self.max_degree < 1:
            raise ValueError("max_degree must be positive")


class CanonicalMonomial(namedtuple("CanonicalMonomial", "alpha beta beta_star")):
    """One basis element a^k b^n b*^m (alpha > 0) or a*^|k| b^n b*^m (alpha < 0).

    ``alpha`` is the signed alpha exponent, ``beta``/``beta_star`` the
    nonnegative b and b* exponents.  A monomial is the tuple of its three
    exponents (equal to it, with its hash and its order), so dict probes in
    the product loops run in C.  The product, the involution and the split
    of a word into runs build their already valid monomials with
    ``tuple.__new__``, past this constructor's check.
    """

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int, beta_star: int):
        if beta < 0 or beta_star < 0:
            raise ValueError("beta exponents must be nonnegative")
        return tuple.__new__(cls, (alpha, beta, beta_star))

    @property
    def degree(self) -> int:
        return abs(self.alpha) + self.beta + self.beta_star

    @property
    def parity(self) -> int:
        """+1 for even total degree, -1 for odd."""
        return -1 if self.degree % 2 else 1

    @property
    def charges(self) -> tuple[int, int]:
        """The two commuting gradings (alpha exponent, beta minus beta* exponent)."""
        return (self.alpha, self.beta - self.beta_star)

    def letters(self) -> tuple[int, ...]:
        alpha_part = (ALPHA,) * self.alpha if self.alpha >= 0 else (ALPHA_STAR,) * (-self.alpha)
        return alpha_part + (BETA,) * self.beta + (BETA_STAR,) * self.beta_star

    def __str__(self):
        if self.degree == 0:
            return "1"
        parts = []
        if self.alpha > 0:
            parts.append("a" + (f"^{self.alpha}" if self.alpha > 1 else ""))
        elif self.alpha < 0:
            parts.append("a*" + (f"^{-self.alpha}" if self.alpha < -1 else ""))
        if self.beta:
            parts.append("b" + (f"^{self.beta}" if self.beta > 1 else ""))
        if self.beta_star:
            parts.append("b*" + (f"^{self.beta_star}" if self.beta_star > 1 else ""))
        return " ".join(parts)


UNIT_MONOMIAL = CanonicalMonomial(0, 0, 0)

# builds a monomial from exponents known to be valid, without the check
_new = tuple.__new__


@dataclass(frozen=True)
class Word:
    """A free (unreduced) word over {a, a*, b, b*} with a scalar coefficient."""

    letters: tuple[int, ...]
    coefficient: complex = 1.0 + 0.0j

    def __post_init__(self):
        if any(l not in LETTERS for l in self.letters):
            raise ValueError(f"invalid letters in {self.letters!r}")

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        body = " ".join(LETTER_NAMES[l] for l in self.letters) or "1"
        return f"({self.coefficient}) {body}"


class NCPolynomial:
    """Finite complex combination of canonical monomials; immutable after build.

    Every constructor path prunes coefficients below ``qp.prune``, so the zero
    polynomial always has empty support.
    """

    __slots__ = ("qp", "terms")

    def __init__(self, qp: QParam, terms=None):
        prune = qp.prune
        pruned = {mon: c for mon, c in zip(terms, map(complex, terms.values()))
                  if abs(c) > prune} if terms else {}
        object.__setattr__(self, "qp", qp)
        object.__setattr__(self, "terms", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("NCPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, qp: QParam) -> "NCPolynomial":
        return cls(qp, {})

    @classmethod
    def one(cls, qp: QParam) -> "NCPolynomial":
        return cls(qp, {UNIT_MONOMIAL: 1.0})

    @classmethod
    def monomial(cls, qp: QParam, mon: CanonicalMonomial, coeff=1.0) -> "NCPolynomial":
        return cls(qp, {mon: coeff})

    @classmethod
    def generator(cls, qp: QParam, letter: int) -> "NCPolynomial":
        mon = {
            ALPHA: CanonicalMonomial(1, 0, 0),
            ALPHA_STAR: CanonicalMonomial(-1, 0, 0),
            BETA: CanonicalMonomial(0, 1, 0),
            BETA_STAR: CanonicalMonomial(0, 0, 1),
        }[letter]
        return cls(qp, {mon: 1.0})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = NCPolynomial(self.qp, {UNIT_MONOMIAL: other})
        if other.qp != self.qp:
            raise ValueError("mixed deformation parameters")
        acc = dict(self.terms)
        for mon, c in other.terms.items():
            acc[mon] = acc.get(mon, 0.0) + c
        return NCPolynomial(self.qp, acc)

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial(self.qp, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, NCPolynomial) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NCPolynomial(self.qp, {m: c * other for m, c in self.terms.items()})
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NCPolynomial(self.qp, {m: other * c for m, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        return (isinstance(other, NCPolynomial) and self.qp == other.qp
                and self.terms == other.terms)

    __hash__ = None  # mutable-looking container semantics

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximal total degree in the support (-1 for the zero polynomial)."""
        return max((m.degree for m in self.terms), default=-1)

    def coeff(self, mon: CanonicalMonomial) -> complex:
        return self.terms.get(mon, 0.0 + 0.0j)

    def allclose(self, other: "NCPolynomial", tol: float = 1e-12) -> bool:
        if self.qp != other.qp:
            return False
        for mon in self.terms.keys() | other.terms.keys():
            if abs(self.coeff(mon) - other.coeff(mon)) > tol:
                return False
        return True

    def max_coeff_diff(self, other: "NCPolynomial") -> float:
        return max((abs(self.coeff(m) - other.coeff(m))
                    for m in self.terms.keys() | other.terms.keys()), default=0.0)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon in sorted(self.terms, key=lambda m: (m.degree, -m.alpha, m.beta)):
            parts.append(f"({self.terms[mon]:.12g}) {mon}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- wire format -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Frozen serialization {"q": ..., "terms": [{"a","b","bs","re","im"}]}."""
        return {
            "q": self.qp.q,
            "terms": [
                {"a": m.alpha, "b": m.beta, "bs": m.beta_star,
                 "re": c.real, "im": c.imag}
                for m, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NCPolynomial":
        """Inverse of `to_json_dict`, at the q the data names."""
        qp = QParam(float(data["q"]))
        terms = {}
        for t in data["terms"]:
            mon = CanonicalMonomial(int(t["a"]), int(t["b"]), int(t["bs"]))
            terms[mon] = complex(float(t["re"]), float(t["im"]))
        return cls(qp, terms)


# ---------------------------------------------------------------------------
# Closed-form product and involution
# ---------------------------------------------------------------------------

def _qpow(q: float, e: int) -> float:
    """q^e, saturating to inf where it overflows, as repeated products do."""
    try:
        return q ** e
    except OverflowError:
        return math.inf


@lru_cache(maxsize=1024)
def _contraction(q: float, c: int, alpha_first: bool) -> tuple[float, ...]:
    """Coefficients in x = b b* of a^c a*^c (``alpha_first``) or of a*^c a^c.

    Every factor is (1 - r x) with r > 0, so the t-th coefficient is (-1)^t
    times a sum of positive terms and the expansion cannot cancel.
    """
    ratio = q * q if alpha_first else 1.0 / (q * q)
    r = ratio if alpha_first else 1.0
    coeffs = [1.0]
    for _ in range(c):
        coeffs = [1.0] + [coeffs[t] - r * coeffs[t - 1] for t in range(1, len(coeffs))] \
            + [-r * coeffs[-1]]
        r *= ratio
    return tuple(coeffs)


def _monomial_product(q: float, m1: CanonicalMonomial, m2: CanonicalMonomial):
    """The canonical expansion of m1 m2 as (monomial, coefficient) pairs.

    Write m_i = A_i B_i with A_i = alpha^(k_i) and B_i = b^(n_i) b*^(m_i).
    B1 moves left past A2, the alpha powers add or contract to a polynomial
    in x, and an alpha remainder right of that polynomial moves left past
    x^t.  Nothing is pruned here; callers decide.
    """
    k1, n1, s1 = m1
    k2, n2, s2 = m2
    k = k1 + k2
    beta, beta_star = n1 + n2, s1 + s2
    passing = -(n1 + s1) * k2
    if k1 * k2 >= 0:
        return [(_new(CanonicalMonomial, (k, beta, beta_star)), _qpow(q, passing))]
    contraction = _contraction(q, min(abs(k1), abs(k2)), k1 > 0)
    remainder_right = abs(k2) > abs(k1)
    return [(_new(CanonicalMonomial, (k, beta + t, beta_star + t)),
             p * _qpow(q, passing - 2 * t * k if remainder_right else passing))
            for t, p in enumerate(contraction)]


def mul(x: NCPolynomial, y: NCPolynomial) -> NCPolynomial:
    """Product in the algebra: the closed-form monomial product, bilinearly.

    As in `normalize`, only the result is pruned: a monomial-product
    coefficient below ``qp.prune`` can be scaled up by the factors' own.
    """
    if x.qp != y.qp:
        raise ValueError("mixed deformation parameters")
    qp = x.qp
    degree = x.degree() + y.degree()
    if x.terms and y.terms and degree > qp.max_degree:
        raise DegreeOverflowError(f"product degree {degree} exceeds cap {qp.max_degree}")
    acc: dict[CanonicalMonomial, complex] = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            scale = c1 * c2
            for mon, c in _monomial_product(qp.q, m1, m2):
                acc[mon] = acc.get(mon, 0.0) + scale * c
    return NCPolynomial(qp, acc)


def _canonical_runs(letters: tuple[int, ...]) -> list[CanonicalMonomial]:
    """Split a free word into its maximal runs of canonical shape
    [a... or a*...][b...][b*...], read left to right."""
    runs = []
    k = n = m = 0
    for letter in letters:
        if letter == BETA_STAR:
            m += 1
            continue
        if letter == BETA:
            if not m:
                n += 1
                continue
            step = (0, 1, 0)
        else:
            sign = 1 if letter == ALPHA else -1
            if not (n or m) and k * sign >= 0:
                k += sign
                continue
            step = (sign, 0, 0)
        runs.append(_new(CanonicalMonomial, (k, n, m)))
        k, n, m = step
    runs.append(_new(CanonicalMonomial, (k, n, m)))
    return runs


def normalize(word: Word, qp: QParam, stats: dict | None = None) -> NCPolynomial:
    """Reduce a free word to its canonical-basis expansion.

    The word splits into maximal runs that are already canonical monomials,
    and the closed-form monomial product folds over them left to right.
    Intermediate coefficients are never pruned: a coefficient below
    ``qp.prune`` can be scaled up by a later q^(-k) factor, so only the
    result is pruned.  No degree cap applies.  If ``stats`` is given, the
    number of monomial products is accumulated under ``"steps"``.
    """
    q = qp.q
    first, *rest = _canonical_runs(word.letters)
    acc: dict[CanonicalMonomial, complex] = {first: complex(word.coefficient)}
    steps = 0
    for run in rest:
        steps += len(acc)
        nxt: dict[CanonicalMonomial, complex] = {}
        for mon, c in acc.items():
            for out, p in _monomial_product(q, mon, run):
                nxt[out] = nxt.get(out, 0.0) + c * p
        acc = nxt
    if stats is not None:
        stats["steps"] = stats.get("steps", 0) + steps
    return NCPolynomial(qp, acc)


def adjoint(x: NCPolynomial) -> NCPolynomial:
    """The involution: conjugate-linear, anti-multiplicative, involutive.

    On monomials, (a^k b^n b*^m)* = q^((n+m)k) a^(-k) b^m b*^n.
    """
    qp = x.qp
    acc: dict[CanonicalMonomial, complex] = {}
    for m, c in x.terms.items():
        w = _qpow(qp.q, (m.beta + m.beta_star) * m.alpha)
        if w > qp.prune:
            acc[_new(CanonicalMonomial, (-m.alpha, m.beta_star, m.beta))] = c.conjugate() * w
    return NCPolynomial(qp, acc)


def z2_act(x: NCPolynomial) -> NCPolynomial:
    """Sign-flip automorphism a -> -a, b -> -b: scales each monomial by (-1)^degree."""
    return NCPolynomial(x.qp, {m: (c if m.degree % 2 == 0 else -c) for m, c in x.terms.items()})


def z2_project(x: NCPolynomial, sector: str) -> NCPolynomial:
    """Parity projection; ``sector`` is "even" or "odd".  even + odd == x."""
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    keep = 0 if sector == "even" else 1
    return NCPolynomial(x.qp, {m: c for m, c in x.terms.items() if m.degree % 2 == keep})


def _peel(mon: CanonicalMonomial) -> tuple[CanonicalMonomial, int]:
    """Split an odd monomial as (even factor, generator letter), peeled from the right.

    Cases follow the structure of the basis: strip b* if present, else b,
    else one alpha letter.  Reassembly by `mul` is exact (coefficient 1)."""
    if mon.beta_star > 0:
        return CanonicalMonomial(mon.alpha, mon.beta, mon.beta_star - 1), BETA_STAR
    if mon.beta > 0:
        return CanonicalMonomial(mon.alpha, mon.beta - 1, 0), BETA
    if mon.alpha > 0:
        return CanonicalMonomial(mon.alpha - 1, 0, 0), ALPHA
    if mon.alpha < 0:
        return CanonicalMonomial(mon.alpha + 1, 0, 0), ALPHA_STAR
    raise AssertionError("unit monomial has no generator factor")


def module_decompose(x: NCPolynomial) -> list[tuple[NCPolynomial, int]]:
    """Write an odd-parity element as sum of (even factor) * generator.

    Exposes the even subalgebra's module structure: the returned pairs
    satisfy  x == sum(mul(factor, generator))  exactly, with every factor of
    even parity.  Even-parity input is rejected; project first.
    """
    if any(m.degree % 2 == 0 for m in x.terms):
        raise ParityError("module_decompose needs odd-parity input; z2_project to 'odd' first")
    buckets: dict[int, dict[CanonicalMonomial, complex]] = {}
    for mon, c in x.terms.items():
        factor, letter = _peel(mon)
        buckets.setdefault(letter, {})
        buckets[letter][factor] = buckets[letter].get(factor, 0.0) + c
    return [(NCPolynomial(x.qp, terms), letter) for letter, terms in sorted(buckets.items())]


# ---------------------------------------------------------------------------
# Enumeration and sampling helpers (shared by verification suites and tests)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def monomials_up_to(max_degree: int, parity: str | None = None) -> tuple[CanonicalMonomial, ...]:
    """All canonical monomials of total degree <= max_degree, optionally one
    parity, by degree, then alpha exponent, then b exponent; memoized."""
    out = []
    for d in range(max_degree + 1):
        if parity == "even" and d % 2:
            continue
        if parity == "odd" and d % 2 == 0:
            continue
        for a in range(-d, d + 1):
            rest = d - abs(a)
            for n in range(rest + 1):
                out.append(CanonicalMonomial(a, n, rest - n))
    return tuple(out)


def random_word(rng, max_len: int, min_len: int = 1, with_coefficient: bool = False) -> Word:
    """Uniform random free word from a seeded ``random.Random``."""
    length = rng.randint(min_len, max_len)
    letters = tuple(rng.choice(LETTERS) for _ in range(length))
    if with_coefficient:
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    else:
        coeff = 1.0 + 0.0j
    return Word(letters, coeff)


def random_polynomial(rng, qp: QParam, max_degree: int = 4, n_terms: int = 4,
                      parity: str | None = None) -> NCPolynomial:
    """Random element with the requested parity, for property checks."""
    pool = monomials_up_to(max_degree, parity)
    terms: dict[CanonicalMonomial, complex] = {}
    for _ in range(n_terms):
        mon = rng.choice(pool)
        terms[mon] = terms.get(mon, 0.0) + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return NCPolynomial(qp, terms)
