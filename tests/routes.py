"""The NCPolynomial routes of the basis and operator layers: the test oracles
for the node-vector routes in `gns` and `triple`, and the letter-by-letter
weight grids: the test oracle for the separable shifts in `rep`.

Each function computes its layer's values through whole algebra elements:
the Gram-Schmidt sweep on x-coefficients against the Hankel moment matrix,
phase-fixed by `_sign_fix` (the basis algorithm before node vectors; it
loses digits with depth), the matrix coefficient through `little_jacobi` on
an algebra element, one `gns_inner` call per entry of pi on the expanded
product, and unit columns pushed through the letter-by-letter grids of
`word_grid`, and the orthonormality meter on the dense Gram of all
entries.  `level_weights` is the Fock weight of one monomial at a time, the
bitwise oracle for the batched `gns._fock_weights`, and `build_generators`,
`interior_indices` and `norm_bound` are the dense-matrix views of `rep`'s
window that its tests compare against.  Two routes take one item at a time where production batches: the
Haar sum with one weighted shift per monomial, and the matrix-coefficient
overlap with one `t_matrix` and one `sector_pair` per label.  The unnormalized
matrix coefficient, the Haar sums and the weight grids perform the float
operations of the production routes in the same order, so they must agree
bitwise; the others agree to a tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from qtriple import gns, rep
from qtriple.gns import (
    GNSVector, HalfInt, _phase, _sector_base_monomial, gns_inner, halfint, little_jacobi,
    sector_labels, sector_moment, sector_of_label, sector_pair,
)
from qtriple.ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR, CanonicalMonomial, NCPolynomial, QParam, mul,
)


def _sign_fix(p: NCPolynomial) -> NCPolynomial:
    """Rotate the phase so the leading (highest-degree) coefficient is positive real."""
    return p * _phase(p)


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


def matrix_coefficient_series(c1: int, c2: int, depth: int, qp: QParam) -> NCPolynomial:
    """Sector (c1, c2)'s base monomial times `little_jacobi` at
    x' = q^(-2 c1) b b* (on the c1 > 0 branch), unnormalized."""
    q = qp.q
    x = mul(NCPolynomial.generator(qp, BETA), NCPolynomial.generator(qp, BETA_STAR))
    if c1 > 0:
        x = x * (q ** (-2 * c1))
    poly = little_jacobi(depth, q ** (2 * abs(c2)), q ** (2 * abs(c1)), q * q, x)
    return mul(NCPolynomial.monomial(qp, _sector_base_monomial(c1, c2, 0)), poly)


def t_matrix(l, j, k, qp: QParam) -> GNSVector:
    """The matrix coefficient `matrix_coefficient_series`, normalized through
    `sector_pair` on its expanded coefficients."""
    l2, j2, k2 = halfint(l).twice, halfint(j).twice, halfint(k).twice
    c1, c2 = sector_of_label(j2, k2)
    vec = matrix_coefficient_series(c1, c2, (l2 - max(abs(j2), abs(k2))) // 2, qp)
    nrm = math.sqrt(sector_pair(vec, vec).real)
    return GNSVector(_sign_fix(vec * (1.0 / nrm)))


def pi_matrix(a: NCPolynomial, basis, row_labels=None, col_labels=None) -> np.ndarray:
    """<e_r, a e_c> by one `gns_inner` call per charge-compatible entry, with
    the product a e_c expanded; a row is charge-compatible through the
    sector of its node vector."""
    rows = list(row_labels if row_labels is not None else basis.labels())
    cols = list(col_labels if col_labels is not None else basis.labels())
    a_charges = {m.charges for m in a.terms}
    rows_of = {}
    for ri, rlab in enumerate(rows):
        for sector in basis.entries[rlab].nodes:
            rows_of.setdefault(sector, []).append(ri)
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for ci, clab in enumerate(cols):
        image = mul(a, basis.entries[clab].poly)
        c1, c2 = next(iter(basis.entries[clab].poly.terms)).charges
        for (da, db) in a_charges:
            for ri in rows_of.get((c1 + da, c2 + db), ()):
                mat[ri, ci] = gns_inner(basis.entries[rows[ri]], image)
    return mat


def node_array_pi_matrix(a: NCPolynomial, basis) -> np.ndarray:
    """<e_r, a e_c> from the node array, rows and columns in label order.

    pi(a) is diagonal on node vectors (`gns.action_weights`), so the block
    from sector s to t = s + shift is V_t^T diag(w) V_s (node vectors are
    real), formed for all the blocks of one charge shift and shape at once.
    """
    index = {sector: i for i, sector in enumerate(basis.sectors)}
    label_index = np.full(basis.vectors.shape[:2], -1)
    label_index[basis.label_depth, basis.label_sector] = np.arange(len(basis.label_array))
    c1, top = np.array(basis.sectors)[:, 0], basis.lmax2
    mat = np.zeros((len(basis.label_array),) * 2, dtype=complex)
    for (k, d), w in gns.action_weights(a, np.arange(-top, top + 1)).items():  # row c1 + top
        tgt = np.array([index.get((s1 + k, s2 + d), -1) for s1, s2 in basis.sectors])
        src = np.flatnonzero(tgt >= 0)
        tgt = tgt[src]
        for s, t in zip(src.tolist(), tgt.tolist()):
            vs, vt = basis.vectors[:basis.depths[s], s], basis.vectors[:basis.depths[t], t]
            block = (vt[:, None] * (w[c1[s] + top] * vs)[None]).sum(axis=-1)
            mat[np.ix_(label_index[:basis.depths[t], t], label_index[:basis.depths[s], s])] = block
    return mat


def orthonormality_defect(basis, qp: QParam) -> float:
    """max |<e_i, e_j> - delta_ij| over the dense n x n Gram of all labels:
    each label's node vector read from the array at its sector and its depth
    l - max(|j|, |k|), entries of distinct sectors paired to 0."""
    labels = basis.labels()
    sector = [basis.sectors.index(sector_of_label(j2, k2)) for _, j2, k2 in labels]
    depth = [(l2 - max(abs(j2), abs(k2))) // 2 for l2, j2, k2 in labels]
    v = basis.vectors[depth, sector]
    gram = np.where(np.equal.outer(sector, sector), (1.0 - qp.q * qp.q) * (v @ v.T), 0.0)
    return float(np.max(np.abs(gram - np.eye(len(labels)))))


def word_grid(letters, t: rep.TruncationSpec, q: float) -> tuple[int, int, np.ndarray]:
    """A word as one weighted shift, e_(k, z) -> grid[k, z] e_(k + d_fock, z + d_z),
    its (fock, z) grid built letter by letter from the left.

    Each step is a shifted and scaled copy of the previous grid, zero where
    the shift leaves the window, so the weights multiply in the order of the
    dense product 1 @ M_1 @ ... @ M_n and a zero marks a source whose path
    leaves the window.  The Fock weights are computed here, not read from
    `rep`.
    """
    wa = np.array([np.sqrt(1.0 - q ** (2 * k)) for k in range(t.fock_dim)])
    wb = np.array([q ** k for k in range(t.fock_dim)])
    # (fock step, z step, weight by source Fock level); a* e_k = wa[k+1] e_(k+1)
    steps = {
        ALPHA: (-1, 0, wa),
        ALPHA_STAR: (1, 0, np.append(wa[1:], 0.0)),
        BETA: (0, 1, wb),
        BETA_STAR: (0, -1, wb),
    }
    grid = np.ones((t.fock_dim, t.z_count))
    d_fock = d_z = 0
    for letter in letters:
        sf, sz, w = steps[letter]
        (fs, ft), (zs, zt) = rep._span(t.fock_dim, sf), rep._span(t.z_count, sz)
        nxt = np.zeros_like(grid)
        nxt[fs, zs] = grid[ft, zt] * w[fs, None]
        grid = nxt
        d_fock += sf
        d_z += sz
    return d_fock, d_z, grid


def apply_word_to_columns(letters, t: rep.TruncationSpec, q: float, cols: np.ndarray) -> np.ndarray:
    """Image of the column block under the word, through `word_grid`."""
    d_fock, d_z, grid = word_grid(letters, t, q)
    (fs, ft), (zs, zt) = rep._span(t.fock_dim, d_fock), rep._span(t.z_count, d_z)
    block = cols.reshape(t.fock_dim, t.z_count, -1)
    out = np.zeros(block.shape, dtype=complex)
    out[ft, zt] = grid[fs, zs][..., None] * block[fs, zs]
    return out.reshape(cols.shape)


def haar_numeric(x: NCPolynomial, t: rep.TruncationSpec) -> complex:
    """(1-q^2) sum_n q^(2n) <(n,0)| x |(n,0)> from the unit columns (n, 0)."""
    q = x.qp.q
    cols = np.zeros((t.dim, t.fock_dim), dtype=complex)
    for n in range(t.fock_dim):
        cols[t.index(n, 0), n] = 1.0
    image = np.zeros(cols.shape, dtype=complex)
    for mon, c in x.terms.items():
        image += c * apply_word_to_columns(mon.letters(), t, q, cols)
    total = 0.0 + 0.0j
    for n in range(t.fock_dim):
        total += q ** (2 * n) * image[t.index(n, 0), n]
    return complex((1.0 - q * q) * total)


def haar_numeric_per_monomial(x: NCPolynomial, t: rep.TruncationSpec) -> complex:
    """`gns.haar_numeric` with one `rep._word_shifts` call per charge-(0, 0)
    monomial, summed per Fock level in the order of the monomials."""
    q = x.qp.q
    diagonal = np.zeros(t.fock_dim, dtype=complex)
    for mon, c in x.terms.items():
        if mon.charges == (0, 0):
            _, _, (f,), (lo,), (hi,) = rep._word_shifts([mon.letters()], t, x.qp)
            diagonal += c * f if lo <= t.z_band < hi else 0.0
    total = 0.0 + 0.0j
    for n in range(t.fock_dim):
        total += q ** (2 * n) * diagonal[n]
    return complex((1.0 - q * q) * total)


def matrix_coefficient_defect(basis) -> float:
    """Worst 1 - |<t^(l)_jk, e^(l)_jk>| over the labels, one `gns.t_matrix` and
    one `sector_pair` with the label's entry each."""
    worst = 0.0
    for (l2, j2, k2) in basis.labels():
        tvec = gns.t_matrix(HalfInt(l2), HalfInt(j2), HalfInt(k2), basis.qp)
        worst = max(worst, 1.0 - abs(sector_pair(tvec, basis.entries[(l2, j2, k2)])))
    return worst


def level_weights(mon: CanonicalMonomial, q: float, f: np.ndarray) -> np.ndarray:
    """W_m(f), the weight with which the monomial sends Fock level f; 0 for f < 0."""
    level = np.maximum(f, 0)
    w = q ** (level * (mon.beta + mon.beta_star)).astype(float)
    # levels f - r, r < k, for a^k (a zero factor kills f < k); f + r for a*^|k|
    for shift in (range(0, -mon.alpha, -1) if mon.alpha > 0 else range(1, 1 - mon.alpha)):
        w = w * np.sqrt(1.0 - q ** (2.0 * np.maximum(level + shift, 0)))
    return np.where(f >= 0, w, 0.0)


def sector_weights(c1: int, c2: int, q: float) -> np.ndarray:
    """Node vector of the sector's base monomial, q^n W_base(n), by `level_weights`."""
    n = np.arange(len(gns._grid(q)))
    return q ** n * level_weights(_sector_base_monomial(c1, c2, 0), q, n)


def action_weights(a: NCPolynomial, c1) -> dict:
    """`gns.action_weights` with one `level_weights` call per term."""
    q = a.qp.q
    f = np.arange(len(gns._grid(q))) - np.asarray(c1)[..., None]
    out = {}
    for m, c in a.terms.items():
        w = (1.0 - q * q) * c * level_weights(m, q, f)
        out[m.charges] = out[m.charges] + w if m.charges in out else w
    return out


def build_generators(t: rep.TruncationSpec, qp: QParam):
    """(alpha matrix, beta matrix) for the truncation window."""
    return tuple(rep.represent(NCPolynomial.generator(qp, g), t) for g in (ALPHA, BETA))


def interior_indices(t: rep.TruncationSpec, margin: int | None = None) -> np.ndarray:
    """Indices of basis vectors at least ``margin`` steps away from every window edge."""
    mu = t.margin if margin is None else margin
    if not 0 <= mu <= min(t.fock_dim - 1, t.z_band):
        raise ValueError(f"margin {mu} leaves no interior window")
    index = np.arange(t.dim).reshape(t.fock_dim, t.z_count)
    return index[:t.fock_dim - mu, mu:t.z_count - mu].ravel()


def norm_bound(a: np.ndarray) -> float:
    """sqrt(max column |.|-sum * max row |.|-sum), at least the 2-norm.

    Equal to the 2-norm, max |entry|, when every column and every row holds
    at most one nonzero (a weighted partial permutation), as a single-sector
    residual does.
    """
    if a.size == 0:
        return 0.0
    mag = np.abs(a)
    return math.sqrt(float(mag.sum(axis=0).max()) * float(mag.sum(axis=1).max()))
