"""The NCPolynomial routes of the basis and operator layers: the test oracles
for the sector-native routes in `gns` and `triple`.

Each function computes its layer's values through whole algebra elements:
the Gram-Schmidt entries phase-fixed by `_sign_fix`, the matrix coefficient
through `little_jacobi` on an algebra element, one `gns_inner` call per
entry of pi, and unit columns pushed through `rep.apply_poly_to_columns`.
The sector-native routes perform the same float operations in the same
order, so their values must equal these bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from qtriple import rep
from qtriple.gns import (
    GNSVector, _sector_base_monomial, _sign_fix, gns_inner, halfint, little_jacobi,
    sector_labels, sector_moment, sector_of_label, sector_pair,
)
from qtriple.ncpoly import BETA, BETA_STAR, NCPolynomial, QParam, mul


def gram_schmidt_entries(lmax2: int, qp: QParam):
    """(entries, norms) of the basis, each entry phase-fixed by `_sign_fix`."""
    entries, norms = {}, {}
    for (c1, c2), labels in sector_labels(lmax2):
        depth_count = len(labels)
        moments = [sector_moment(c1, c2, p, qp) for p in range(2 * depth_count - 1)]
        done = []

        def pair(u, v):
            return sum(ui * moments[s + t] * vt
                       for s, ui in enumerate(u) for t, vt in enumerate(v))

        for depth, key in enumerate(labels):
            u = [0.0] * (depth + 1)
            u[depth] = 1.0
            for _ in range(2):
                for e in done:
                    c = pair(e, u)
                    u = [ui - c * (e[i] if i < len(e) else 0.0)
                         for i, ui in enumerate(u)]
            nrm = math.sqrt(pair(u, u))
            e_coeffs = [ui / nrm for ui in u]
            done.append(e_coeffs)
            poly = NCPolynomial(qp, {
                _sector_base_monomial(c1, c2, t): c
                for t, c in enumerate(e_coeffs) if c != 0.0})
            entries[key] = GNSVector(_sign_fix(poly))
            norms[key] = nrm
    return entries, norms


def t_matrix(l, j, k, qp: QParam) -> GNSVector:
    """The matrix coefficient as base monomial times `little_jacobi` at
    x' = q^(-2 c1) b b*, normalized through `sector_pair`."""
    l2, j2, k2 = halfint(l).twice, halfint(j).twice, halfint(k).twice
    c1, c2 = sector_of_label(j2, k2)
    depth = (l2 - max(abs(j2), abs(k2))) // 2
    q = qp.q
    x = mul(NCPolynomial.generator(qp, BETA), NCPolynomial.generator(qp, BETA_STAR))
    if c1 > 0:
        x = x * (q ** (-2 * c1))
    poly = little_jacobi(depth, q ** (2 * abs(c2)), q ** (2 * abs(c1)), q * q, x)
    vec = mul(NCPolynomial.monomial(qp, _sector_base_monomial(c1, c2, 0)), poly)
    nrm = math.sqrt(sector_pair(vec, vec, qp).real)
    return GNSVector(_sign_fix(vec * (1.0 / nrm)))


def pi_matrix(a: NCPolynomial, basis, row_labels=None, col_labels=None) -> np.ndarray:
    """<e_r, a e_c> by one `gns_inner` call per charge-compatible entry."""
    rows = list(row_labels if row_labels is not None else basis.labels())
    cols = list(col_labels if col_labels is not None else basis.labels())
    a_charges = {m.charges for m in a.terms}

    def charge(lab):
        return next(iter(basis.entries[lab].poly.terms)).charges

    rows_of = {}
    for ri, rlab in enumerate(rows):
        rows_of.setdefault(charge(rlab), []).append(ri)
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for ci, clab in enumerate(cols):
        image = mul(a, basis.entries[clab].poly)
        c1, c2 = charge(clab)
        for (da, db) in a_charges:
            for ri in rows_of.get((c1 + da, c2 + db), ()):
                mat[ri, ci] = gns_inner(basis.entries[rows[ri]], image)
    return mat


def haar_numeric(x: NCPolynomial, t: rep.TruncationSpec) -> complex:
    """(1-q^2) sum_n q^(2n) <(n,0)| x |(n,0)> from the unit columns (n, 0)."""
    q = x.qp.q
    cols = np.zeros((t.dim, t.fock_dim), dtype=complex)
    for n in range(t.fock_dim):
        cols[t.index(n, 0), n] = 1.0
    image = rep.apply_poly_to_columns(x, t, cols)
    total = 0.0 + 0.0j
    for n in range(t.fock_dim):
        total += q ** (2 * n) * image[t.index(n, 0), n]
    return complex((1.0 - q * q) * total)

