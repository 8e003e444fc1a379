"""Independent references for the benchmark's output checks.

Nothing here imports qtriple: every value is derived from the algebra's
defining relations or the documented representation, in exact rational
arithmetic where the benchmark runs at rational q.

* a*^k a^k = prod_{i<k} (1 - q^(-2i) x) and b* a* b a = q^-1 x (1 - x),
  with x = b b*; x^m is the canonical monomial b^m b*^m with coefficient 1.
* The Haar state on x^m is (1 - q^2) / (1 - q^(2m+2)).
* The truncated representation a -> S sqrt(1 - Q^2) (x) 1, b -> Q (x) R on
  fock in [0, N_F), z in [-N_Z, N_Z], hard-truncated, row-major (fock, z).
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import comb

import numpy as np


def expand_linear_factors(roots: list[Fraction]) -> list[Fraction]:
    """Coefficients c_m of prod_i (1 - r_i x), lowest power first."""
    poly = [Fraction(1)]
    for r in roots:
        nxt = poly + [Fraction(0)]
        for m, c in enumerate(poly):
            nxt[m + 1] -= r * c
        poly = nxt
    return poly


def astar_a_power(k: int, q: Fraction) -> dict[int, Fraction]:
    """x-power -> coefficient of a*^k a^k."""
    coeffs = expand_linear_factors([q ** (-2 * i) for i in range(k)])
    return {m: c for m, c in enumerate(coeffs) if c}


def bab_power(k: int, q: Fraction) -> dict[int, Fraction]:
    """x-power -> coefficient of (b* a* b a)^k = q^-k x^k (1 - x)^k."""
    return {k + j: q ** (-k) * comb(k, j) * (-1) ** j for j in range(k + 1)}


def haar_x_power(m: int, q: Fraction) -> Fraction:
    return (1 - q * q) / (1 - q ** (2 * m + 2))


def haar_astar_a(k: int, q: Fraction) -> Fraction:
    """Exact Haar value of a*^k a^k at rational q."""
    return sum((c * haar_x_power(m, q) for m, c in astar_a_power(k, q).items()),
               start=Fraction(0))


def generator_matrices(fock_dim: int, z_band: int, q: float) -> dict[str, np.ndarray]:
    """Dense truncated a, a', b, b' on the (fock, z) window."""
    nz = 2 * z_band + 1
    shift = np.zeros((fock_dim, fock_dim))
    for k in range(1, fock_dim):
        shift[k - 1, k] = np.sqrt(1.0 - q ** (2 * k))
    bilateral = np.eye(nz, k=-1)
    a = np.kron(shift, np.eye(nz))
    b = np.kron(np.diag(q ** np.arange(fock_dim)), bilateral)
    return {"a": a, "a'": a.T.copy(), "b": b, "b'": b.T.copy()}


def word_matrix(gens: dict[str, np.ndarray], letters: str) -> np.ndarray:
    """Ordered product of generator matrices, letters separated by spaces."""
    names = letters.split()
    acc = gens[names[0]]
    for name in names[1:]:
        acc = acc @ gens[name]
    return acc


_BIN_HEADER = struct.Struct("<I12x")


def read_bin_matrix(raw: bytes) -> np.ndarray:
    """Decode the binary dump: u32 dim, 12 zero bytes, row-major complex128."""
    (dim,) = _BIN_HEADER.unpack_from(raw)
    if raw[4:_BIN_HEADER.size] != bytes(12):
        raise ValueError("reserved header bytes are not zero")
    if len(raw) != _BIN_HEADER.size + 16 * dim * dim:
        raise ValueError(f"{len(raw)} bytes do not hold a {dim} x {dim} matrix")
    return np.frombuffer(raw, dtype="<c16", offset=_BIN_HEADER.size).reshape(dim, dim)
