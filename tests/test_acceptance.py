"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; all
tolerances are pinned here, not configurable.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
from qtriple.gns import (
    HalfInt, gns_inner, gram_schmidt_basis, haar_exact, haar_numeric, t_matrix,
)
from qtriple.isodeform import (
    build_model, decompose, left_twist, right_twist, star_product,
    twisted_triple_check, verify_lemma_a, verify_lemma_b, z2_twist_project,
)
from qtriple.ncpoly import (
    ALPHA, CanonicalMonomial, NCPolynomial, QParam,
    monomials_up_to, random_polynomial, random_word, z2_act,
)
from qtriple.rep import (
    RELATION_NAMES, TruncationSpec, normal_form_residual, relation_residuals,
)
from qtriple.triple import (
    DiracSpec, _sector_signs, certify_covering, commutator_norm_scan, dirac_labels,
    hilbert_module_product, spectrum_rows, summability_scan,
)


def report(num: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_relation_suite():
    t0 = time.monotonic()
    t = TruncationSpec(16, 8, 2)
    worst = 0.0
    for q in (0.3, 0.5, 0.8):
        res = relation_residuals(t, QParam(q))
        assert set(res) == set(RELATION_NAMES)
        worst = max(worst, max(res.values()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, ok, f"five relations, q in (0.3, 0.5, 0.8): worst residual "
                  f"{worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


def test_criterion_02_normal_form_oracle():
    t0 = time.monotonic()
    t = TruncationSpec(16, 8, 2)
    qp = QParam(0.5)
    rng = random.Random(0)
    words = [random_word(rng, max_len=8) for _ in range(200)]
    worst = max(normal_form_residual(words, t, qp))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(2, ok, f"200 random words (seed 0, length <= 8): worst interior "
                  f"residual {worst:.2e} <= 1e-10, {elapsed:.2f}s < 30s")


def test_criterion_03_haar_closed_form():
    t = TruncationSpec(24, 8)
    worst_pair = ("", 0.0)
    series_worst = 0.0
    ok = True
    for q in (0.5, 0.8):
        qp = QParam(q)
        tol = 10.0 * q ** (2 * t.fock_dim)
        for m in monomials_up_to(6):
            p = NCPolynomial.monomial(qp, m)
            diff = abs(haar_exact(p) - haar_numeric(p, t))
            if diff > worst_pair[1]:
                worst_pair = (f"q={q}", diff)
            ok = ok and diff <= tol
        for n in range(7):
            p = NCPolynomial.monomial(qp, CanonicalMonomial(0, n, n))
            series = (1 - q * q) / (1 - q ** (2 * (n + 1)))
            d = abs(haar_exact(p) - series)
            series_worst = max(series_worst, d)
            ok = ok and d <= 1e-14
    report(3, ok, f"exact vs numeric (deg <= 6, N_F = 24): worst {worst_pair[1]:.2e} "
                  f"within 10 q^48; geometric-series check worst {series_worst:.2e} <= 1e-14")


def test_criterion_04_gns_orthonormality():
    qp = QParam(0.5)
    basis = gram_schmidt_basis(3, qp)  # l <= 3/2
    labels = basis.labels()
    counts_ok = all(sum(1 for lab in labels if lab[0] == l2) == (l2 + 1) ** 2
                    for l2 in range(4))
    worst = 0.0
    for i, li in enumerate(labels):
        for lj in labels[i:]:
            val = gns_inner(basis.entries[li], basis.entries[lj])
            worst = max(worst, abs(val - (1.0 if li == lj else 0.0)))
    overlap_defect = 0.0
    for (l2, j2, k2) in labels:
        tv = t_matrix(HalfInt(l2), HalfInt(j2), HalfInt(k2), qp)
        overlap_defect = max(overlap_defect,
                             1.0 - abs(gns_inner(tv, basis.entries[(l2, j2, k2)])))
    ok = counts_ok and worst <= 1e-10 and overlap_defect <= 1e-8
    report(4, ok, f"orthonormality defect {worst:.2e} <= 1e-10, counts (2l+1)^2 "
                  f"{'exact' if counts_ok else 'WRONG'}, matrix-coefficient overlap "
                  f"defect {overlap_defect:.2e} <= 1e-8")


def test_criterion_05_parity_theorem():
    qp = QParam(0.5)
    basis = gram_schmidt_basis(5, qp)  # l <= 5/2
    worst = 0.0
    for (l2, j2, k2), vec in basis.entries.items():
        expected = vec.poly if l2 % 2 == 0 else -vec.poly
        worst = max(worst, z2_act(vec.poly).max_coeff_diff(expected))
    ok = worst == 0.0
    report(5, ok, f"sign flip on every basis label l <= 5/2: coefficientwise "
                  f"defect {worst} (exact)")


def test_criterion_06_dirac_and_restriction():
    spec = DiracSpec(HalfInt(6))
    table_ok = True
    for (l2, j2, k2) in dirac_labels(6):
        expected = -(l2 + 1) if j2 == l2 else l2 + 1
        table_ok = table_ok and spec.d(HalfInt(l2), HalfInt(j2)) == expected
    restricted = spectrum_rows(6, "unoriented")
    odd_ok = all(r["eig"] % 2 != 0 and r["l2"] % 2 == 0 for r in restricted)
    # g as the restricted triple reads it: z2_act's sign on each label's sector
    basis = gram_schmidt_basis(6, QParam(0.5))
    assert basis.labels() == dirac_labels(6)
    d_diag = np.array([spec.d(HalfInt(l2), HalfInt(j2)) for (l2, j2, _) in dirac_labels(6)])
    g_diag = _sector_signs(basis.qp, basis.sectors)[basis.label_sector]
    comm = np.max(np.abs(np.diag(g_diag) @ np.diag(d_diag)
                         - np.diag(d_diag) @ np.diag(g_diag)))
    odd_ok = odd_ok and all(d_diag[g_diag > 0] % 2)
    ok = table_ok and odd_ok and comm == 0.0
    report(6, ok, f"eigenvalue table exact, restricted spectrum odd +-(2l+1) only, "
                  f"gD - Dg = {comm} (exact matrix identity)")


def test_criterion_07_covering_certification():
    qp = QParam(0.5)
    cert = certify_covering(8, qp)
    expected = sum((d + 1) ** 2 for d in (1, 3, 5, 7))
    rng = random.Random(0)
    worst = 0.0
    for _ in range(100):
        a = random_polynomial(rng, qp, max_degree=4, n_terms=3)
        b = random_polynomial(rng, qp, max_degree=4, n_terms=3)
        prod = hilbert_module_product(a, b)
        worst = max(worst, z2_act(prod).max_coeff_diff(prod))
    ok = cert.odd_count == expected and not cert.mismatches and worst == 0.0
    report(7, ok, f"{cert.odd_count}/{expected} odd monomials (deg <= 8) decompose "
                  f"with exact reassembly; 100 module products sign-flip fixed "
                  f"(defect {worst})")


def test_criterion_08_summability_trend():
    rows4 = summability_scan(16, 4.0)  # scan to l = 8
    incs = [r["increment"] for r in rows4]
    mono = all(incs[i] < incs[i - 1] for i in range(1, len(incs)))
    ratios = [incs[i] / incs[i - 1] for i in range(1, len(incs)) if rows4[i]["l2"] > 6]
    ratio_ok = all(r < 0.9 for r in ratios)
    rows3 = summability_scan(40, 3.0)
    dev = max(abs(r["increment"] * (r["l2"] + 1) - 1.0)
              for r in rows3 if 10 <= r["l2"] <= 40)
    ok = mono and ratio_ok and dev <= 0.1
    report(8, ok, f"s=4: increments monotone, ratios < 0.9 beyond l = 3 "
                  f"(max {max(ratios):.3f} on scan to l = 8); s=3: harmonic c/(2l+1) "
                  f"deviation {dev:.2e} <= 0.1 on l in [5, 20]")


def test_criterion_09_twist_lemma():
    worst = 0.0
    for n in (2, 3, 4, 6, 12):
        model = build_model(n, Fraction(1, n))
        gens = list(model.generators().values())
        for x, y in itertools.product(gens, repeat=2):
            worst = max(worst, verify_lemma_a(x, y, model),
                        verify_lemma_b(x, y, model))
    m0 = build_model(4, Fraction(0))
    rng = np.random.default_rng(0)
    t = rng.standard_normal((m0.dim, m0.dim)) + 1j * rng.standard_normal((m0.dim, m0.dim))
    degenerate = (np.array_equal(left_twist(decompose(t, m0)), t)
                  and np.array_equal(right_twist(decompose(t, m0)), t))
    ok = worst <= 1e-13 and degenerate
    report(9, ok, f"twist lemma residuals over generator pairs, N in (2,3,4,6,12): "
                  f"worst {worst:.2e} <= 1e-13; theta = 0 twists degenerate exactly: "
                  f"{degenerate}")


def test_criterion_10_twisted_triple():
    model = build_model(4, Fraction(1, 4))
    checks = twisted_triple_check(model)  # D = p1 + p2 by default
    by_name = {c.name: c for c in checks}
    comm_val = by_name["[D, l(a)] = l([D, a])"].value
    gens = [decompose(g, model) for g in model.generators().values()]
    pool = gens + [star_product(x, y) for x in gens for y in gens]
    evens = [z2_twist_project(op) for op in pool]
    closure_ok = all(
        all((n1 + n2) % 2 == 0 for (n1, n2) in star_product(x, y).degrees())
        for x in evens for y in evens)
    ok = all(c.passed for c in checks) and comm_val <= 1e-13 and closure_ok
    report(10, ok, f"[D, l(a)] = l([D, a]) residual {comm_val:.2e} <= 1e-13 with "
                   f"D = p1 + p2; even-projection star closure exhaustive at N = 4: "
                   f"{closure_ok}")


def test_criterion_11_commutator_boundedness_evidence():
    qp = QParam(0.5)
    alpha = NCPolynomial.generator(qp, ALPHA)
    norms = commutator_norm_scan(alpha, qp, [3, 4, 5, 6])  # l = 3/2 .. 3
    drift = abs(norms[-1] - norms[-2]) / norms[-2]
    ok = drift < 0.05
    report(11, ok, f"|[D, pi(alpha)]| at l = 3/2, 2, 5/2, 3: "
                   f"{[round(n, 6) for n in norms]}; last-step change "
                   f"{100 * drift:.3f}% < 5% (boundedness evidence only)")
