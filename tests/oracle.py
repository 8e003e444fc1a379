"""The free-word rewriting engine: the test oracle for `ncpoly`'s closed forms.

Rewrite rule set (derived from the algebra's relations and their adjoints):

    b  a   -> q^-1 a  b         b  a*  -> q a*  b
    b* a   -> q^-1 a  b*        b* a*  -> q a*  b*
    a* a   -> 1 - b* b          a  a*  -> 1 - q^2 b b*
    b* b   -> b b*

Contractions (the two mixed a/a* rules) strictly reduce the number of mixed
alpha pairs, transpositions strictly reduce inversions against the letter
order a, a* < b < b*, so rewriting terminates.  The rules only multiply by
powers of q, so the engine runs unchanged on any coefficient type: with
q = Fraction(1, 2) it gives exact normal forms.
"""

from __future__ import annotations

from qtriple.ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR, CanonicalMonomial, NCPolynomial, QParam, Word,
)

# transpositions: (left, right) -> (q exponent of the factor, swapped pair)
_SWAPS = {
    (BETA, ALPHA): (-1, (ALPHA, BETA)),
    (BETA_STAR, ALPHA): (-1, (ALPHA, BETA_STAR)),
    (BETA, ALPHA_STAR): (1, (ALPHA_STAR, BETA)),
    (BETA_STAR, ALPHA_STAR): (1, (ALPHA_STAR, BETA_STAR)),
    (BETA_STAR, BETA): (0, (BETA, BETA_STAR)),
}

_CONTRACTIONS = frozenset({(ALPHA_STAR, ALPHA), (ALPHA, ALPHA_STAR)})


def rewrite(letters, q, coefficient=1, stats: dict | None = None) -> dict:
    """Canonical expansion of ``coefficient`` times the free word ``letters``,
    as {CanonicalMonomial: coefficient}, with nothing pruned.

    Contractions (a*a, aa*) are eliminated before any transposition is
    applied; the combined measure (mixed alpha pairs, inversion count)
    strictly decreases at every rule application.  If ``stats`` is given,
    the number of rule applications is accumulated under ``"steps"``.
    """
    out: dict = {}
    stack = [(coefficient, tuple(letters))]
    steps = 0
    while stack:
        c, w = stack.pop()
        while True:
            pos = _first_contraction(w)
            if pos is not None:
                steps += 1
                left, right = w[:pos], w[pos + 2:]
                if w[pos] == ALPHA_STAR:  # a* a -> 1 - b* b
                    stack.append((-c, left + (BETA_STAR, BETA) + right))
                else:                     # a a* -> 1 - q^2 b b*
                    stack.append((-c * q * q, left + (BETA, BETA_STAR) + right))
                w = left + right
                continue
            pos = _first_swap(w)
            if pos is None:
                break
            steps += 1
            exp, swapped = _SWAPS[w[pos], w[pos + 1]]
            if exp:
                c = c * (q ** exp)
            w = w[:pos] + swapped + w[pos + 2:]
        mon = _canonical_of(w)
        out[mon] = out.get(mon, 0) + c
    if stats is not None:
        stats["steps"] = stats.get("steps", 0) + steps
    return out


def normalize(word: Word, qp: QParam) -> NCPolynomial:
    """The rewriter's normal form of ``word`` at float q, pruned as
    `NCPolynomial` prunes."""
    return NCPolynomial(qp, rewrite(word.letters, qp.q, complex(word.coefficient)))


def _first_contraction(w):
    for i in range(len(w) - 1):
        if (w[i], w[i + 1]) in _CONTRACTIONS:
            return i
    return None


def _first_swap(w):
    for i in range(len(w) - 1):
        if (w[i], w[i + 1]) in _SWAPS:
            return i
    return None


def _canonical_of(w: tuple[int, ...]) -> CanonicalMonomial:
    # the word must already have shape [a... or a*...][b...][b*...]
    i = 0
    alpha = 0
    if i < len(w) and w[i] == ALPHA:
        while i < len(w) and w[i] == ALPHA:
            alpha += 1
            i += 1
    elif i < len(w) and w[i] == ALPHA_STAR:
        while i < len(w) and w[i] == ALPHA_STAR:
            alpha -= 1
            i += 1
    beta = 0
    while i < len(w) and w[i] == BETA:
        beta += 1
        i += 1
    beta_star = 0
    while i < len(w) and w[i] == BETA_STAR:
        beta_star += 1
        i += 1
    if i != len(w):
        raise AssertionError(f"word not in canonical shape: {w}")
    return CanonicalMonomial(alpha, beta, beta_star)
