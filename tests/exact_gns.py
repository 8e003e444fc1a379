"""Exact rational-q oracle for the GNS layer, on the standard library only.

At rational q every sector moment is rational.  The moment of x^p in
sector (c1, c2) is

    m(p) = (1 - Q) sum_{k >= k0} Q^(k (p + |c2| + 1)) prod_i (1 - Q^(k -+ i)),

Q = q^2, with the product over i < c1 of (1 - Q^(k - i)) and k0 = c1 when
c1 > 0, over i = 1..|c1| of (1 - Q^(k + i)) and k0 = 0 otherwise.  The
product is a polynomial in y = Q^k, and each of its terms sums as a
geometric series in closed form.  Gram-Schmidt on these moments keeps the
monic orthogonal polynomials and their squared norms exact.

pi(a) and pi(b) pair two sectors through one moment functional: on the
nodes, the two sector weights times the generator's Fock weight are the
weights of the sector with the larger |c1| (for a), or q^(-c1) times those
of the sector with the larger |c2| (for b).  So their squared entries in
the orthonormal basis are exact rationals too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _poly_mul(p: list, r: list) -> list:
    out = [Fraction(0)] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


@lru_cache(maxsize=None)
def sector_moments(c1: int, c2: int, count: int, q: Fraction) -> tuple[Fraction, ...]:
    """The exact moments m(0), ..., m(count - 1) of sector (c1, c2)."""
    Q = q * q
    alpha = [Fraction(1)]
    if c1 > 0:
        k0 = c1
        for i in range(c1):
            alpha = _poly_mul(alpha, [Fraction(1), -Q ** -i])
    else:
        k0 = 0
        for i in range(1, -c1 + 1):
            alpha = _poly_mul(alpha, [Fraction(1), -Q ** i])
    out = []
    for p in range(count):
        e = p + abs(c2) + 1
        out.append((1 - Q) * sum(a * Q ** (k0 * (e + j)) / (1 - Q ** (e + j))
                                 for j, a in enumerate(alpha)))
    return tuple(out)


def _pair(u: list, v: list, moments) -> Fraction:
    return sum((a * b * moments[s + t] for s, a in enumerate(u) for t, b in enumerate(v)),
               start=Fraction(0))


@lru_cache(maxsize=None)
def monic_basis(c1: int, c2: int, depth_count: int, q: Fraction):
    """Monic orthogonal polynomials of the sector, as x-coefficient tuples,
    and their squared norms, for depths 0 .. depth_count - 1."""
    moments = sector_moments(c1, c2, 2 * depth_count - 1, q)
    polys, norms_sq = [], []
    for depth in range(depth_count):
        u = [Fraction(0)] * depth + [Fraction(1)]
        power = list(u)
        for p, h in zip(polys, norms_sq):
            c = _pair(p, power, moments) / h
            u = [ut - c * (p[t] if t < len(p) else 0) for t, ut in enumerate(u)]
        polys.append(tuple(u))
        norms_sq.append(_pair(u, u, moments))
    return tuple(polys), tuple(norms_sq)


def generator_entry_sq(letter: str, col_sector, col_depth: int, row_depth: int,
                       depth_counts: dict, q: Fraction) -> Fraction:
    """|<e_row, pi(g) e_col>|^2 for g = a or b, the row in the shifted sector."""
    c1, c2 = col_sector
    row_sector = (c1 + 1, c2) if letter == "a" else (c1, c2 + 1)
    if letter == "a":
        sigma, scale = max(col_sector, row_sector, key=lambda s: abs(s[0])), Fraction(1)
    else:
        sigma, scale = max(col_sector, row_sector, key=lambda s: abs(s[1])), q ** -c1
    polys_c, h_c = monic_basis(*col_sector, depth_counts[col_sector], q)
    polys_r, h_r = monic_basis(*row_sector, depth_counts[row_sector], q)
    pc, pr = polys_c[col_depth], polys_r[row_depth]
    moments = sector_moments(*sigma, len(pc) + len(pr) - 1, q)
    value = scale * _pair(pr, pc, moments)
    return value * value / (h_c[col_depth] * h_r[row_depth])
