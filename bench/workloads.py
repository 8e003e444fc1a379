"""The benchmark's workloads: what each runs, why it exists, where its time goes.

Each workload is one closed loop in one fresh interpreter: every call waits
for the previous one.  Every output is checked against a reference from
`reference`, never against the qtriple code that produced it.  An
operation is one check of a verify report or one checked library result;
a CLI run that exits 2, or any exception, is one failed operation.

qtriple is imported inside the functions, and its functions are always
looked up on their module at call time, so the tracer's wrappers are seen
and the harness process never imports the program it measures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference

# Relative agreement required of a float result against its exact reference:
# nine significant digits, far above the roundoff of a correct float64 route.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # traced self-time share per layer, measured on a prototype of this tracer
    # when the benchmark was added; a trace run prints today's shares beside it
    layer_shares: dict[str, float]
    # operation name -> why it failed when the benchmark was added; these
    # count as failed operations but do not make the run incorrect
    known_defects: dict[str, str]
    run: Callable[["Session"], None]


class Session:
    """Runs one workload iteration's operations and records their outcomes."""

    def __init__(self, seed: int, out_dir: Path, step=None):
        self.seed = seed
        self.out_dir = out_dir
        self.step = step or (lambda label: contextlib.nullcontext())
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.report_bytes = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((name, detail))

    def check(self, name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        """Run one library operation and its check; an exception is a failure."""
        with self.step(name):
            try:
                ok, detail = fn()
            except Exception as exc:  # the run must go on and report it
                ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, ok, detail)

    def cli(self, label: str, argv: list[str]) -> tuple[int, str] | None:
        """Run ``qtriple <argv>`` in-process; None after a recorded failure."""
        from qtriple import cli

        out, err = io.StringIO(), io.StringIO()
        with self.step(label):
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:
                self.record(label, False, f"{type(exc).__name__}: {exc}")
                return None
        text = out.getvalue()
        self.report_bytes += len(text.encode())
        if code not in (0, 1):
            self.record(label, False, f"exit {code}: {err.getvalue().strip()}")
            return None
        return code, text

    def verify(self, label: str, argv: list[str]) -> None:
        """Run a verify suite; each check in its report is one operation."""
        result = self.cli(label, argv)
        if result is None:
            return
        code, text = result
        try:
            report = json.loads(text)
            checks = report["checks"]
            consistent = (code == 0) == bool(report["all_pass"]) == all(c["pass"] for c in checks)
        except (ValueError, KeyError, TypeError) as exc:
            self.record(label, False, f"malformed report: {exc}")
            return
        if not consistent or not checks:
            self.record(label, False, f"exit {code} disagrees with the report's pass flags")
        for c in checks:
            self.record(f"{label}: {c['name']}", bool(c["pass"]),
                        f"value {c['value']} tolerance {c['tolerance']}")


def _x_poly_check(poly, expected: dict[int, Fraction]) -> tuple[bool, str]:
    """Compare an element against sum_m c_m x^m through its frozen wire format."""
    got = {}
    for t in poly.to_json_dict()["terms"]:
        if t["a"] != 0 or t["b"] != t["bs"]:
            return False, f"term a={t['a']} b={t['b']} bs={t['bs']} is not a power of x"
        got[t["b"]] = complex(t["re"], t["im"])
    worst = 0.0
    for m in got.keys() | expected.keys():
        exact = float(expected.get(m, 0))
        scale = abs(exact) if exact else max(abs(float(c)) for c in expected.values())
        worst = max(worst, abs(got.get(m, 0.0) - exact) / scale)
    return worst <= REL_TOL, f"worst relative coefficient error {worst:.3e}"


def _rel_check(got: complex, exact: Fraction) -> tuple[bool, str]:
    err = abs(got - float(exact)) / abs(float(exact))
    return err <= REL_TOL, f"got {got.real:.6e}, exact {float(exact):.6e}, relative error {err:.3e}"


# ---------------------------------------------------------------------------
# operators: the dense-matrix layers
# ---------------------------------------------------------------------------

WINDOW = ["--fock", "20", "--zband", "10"]
DUMP_EXPR = "a b' + q a' b b' + b b'"
DUMP_TERMS = ((1.0, "a b'"), (0.5, "a' b b'"), (1.0, "b b'"))  # DUMP_EXPR at q = 0.5


def _check_dump(path: Path) -> tuple[bool, str]:
    got = reference.read_bin_matrix(path.read_bytes())
    gens = reference.generator_matrices(20, 10, 0.5)
    want = sum(c * reference.word_matrix(gens, word) for c, word in DUMP_TERMS)
    if got.shape != want.shape:
        return False, f"shape {got.shape}, expected {want.shape}"
    err = float(np.max(np.abs(got - want)))
    return err <= 1e-12, f"dim {got.shape[0]}, max entry error {err:.3e}"


def run_operators(s: Session) -> None:
    s.verify("verify relations", ["verify", "relations", *WINDOW, "--seed", str(s.seed)])
    path = s.out_dir / f"matrix-{os.getpid()}.bin"
    try:
        if s.cli("dump-matrix", ["dump-matrix", DUMP_EXPR, *WINDOW, "--q", "0.5",
                                 "--format", "bin", "--out", str(path)]) is not None:
            s.check("dump-matrix bin", lambda: _check_dump(path))
    finally:
        path.unlink(missing_ok=True)
    s.verify("verify deform (rational theta)",
             ["verify", "deform", "--n", "24", "--theta", "1/24", "--seed", str(s.seed)])
    theta = f"{random.Random(s.seed).uniform(0.05, 0.45):.6f}"
    s.verify("verify deform (float theta)",
             ["verify", "deform", "--n", "24", "--theta", theta, "--seed", str(s.seed)])


# ---------------------------------------------------------------------------
# algebra, basis part: the GNS / Dirac path at the lmax2 cap
# ---------------------------------------------------------------------------

SCAN_ELEMENTS = ("a", "b", "a^2", "a b", "a b'", "b b'", "a' b")
LMAX2 = 8


def _check_scan(expr: str) -> tuple[bool, str]:
    """The guarded commutator norm is nondecreasing in lmax2 (each matrix
    holds the previous one as a block), and its last value is the largest
    singular value of the lmax2 = 8 commutator."""
    from qtriple import gns, grammar, ncpoly, triple

    qp = ncpoly.QParam(0.5)
    x = grammar.parse(expr, qp)
    cutoffs = list(range(2 * x.degree(), LMAX2 + 1))
    norms = triple.commutator_norm_scan(x, qp, cutoffs)
    top = triple.commutator_matrix(x, gns.gram_schmidt_basis(LMAX2, qp),
                                   triple.DiracSpec(gns.HalfInt(LMAX2)))
    svd = float(np.linalg.norm(top, 2))
    drop = max((a - b) / a for a, b in zip(norms, norms[1:]))
    miss = abs(norms[-1] - svd) / svd
    ok = len(norms) == len(cutoffs) and drop <= REL_TOL and miss <= REL_TOL
    return ok, (f"largest relative drop {drop:.3e}, last norm {norms[-1]:.12g} "
                f"vs singular value {svd:.12g} ({miss:.3e})")


def run_basis(s: Session) -> None:
    common = ["--q", "0.5", "--lmax2", str(LMAX2), "--seed", str(s.seed)]
    for suite in ("gns", "triple", "parity"):
        s.verify(f"verify {suite}", ["verify", suite, *common])
    for expr in SCAN_ELEMENTS:
        s.check(f"commutator scan {expr}", lambda: _check_scan(expr))


# ---------------------------------------------------------------------------
# algebra, words part: rewriting with little reuse
# ---------------------------------------------------------------------------

RANDOM_WORDS = 100


def run_words(s: Session) -> None:
    from qtriple import gns, grammar, ncpoly

    q = Fraction(1, 2)
    qp = ncpoly.QParam(float(q))
    a, a_star, b, b_star = ncpoly.ALPHA, ncpoly.ALPHA_STAR, ncpoly.BETA, ncpoly.BETA_STAR
    for k in range(1, 13):
        word = ncpoly.Word((a_star,) * k + (a,) * k)
        s.check(f"normalize a*^{k} a^{k}",
                lambda: _x_poly_check(ncpoly.normalize(word, qp), reference.astar_a_power(k, q)))
    for k in range(1, 10):
        word = ncpoly.Word((b_star, a_star, b, a) * k)
        s.check(f"normalize (b* a* b a)^{k}",
                lambda: _x_poly_check(ncpoly.normalize(word, qp), reference.bab_power(k, q)))

    rng = random.Random(s.seed)
    for i in range(RANDOM_WORDS):
        n = rng.randint(16, 24)
        letters = tuple(rng.choice((a, a_star, b, b_star)) for _ in range(n))
        cut = rng.randint(1, n - 1)

        def split_check():
            whole = ncpoly.normalize(ncpoly.Word(letters), qp)
            parts = ncpoly.mul(ncpoly.normalize(ncpoly.Word(letters[:cut]), qp),
                               ncpoly.normalize(ncpoly.Word(letters[cut:]), qp))
            # relative to the word's unit coefficient or its largest normal-form
            # coefficient, whichever is larger
            scale = max([1.0, *(abs(c) for c in whole.terms.values())])
            err = whole.max_coeff_diff(parts) / scale
            return err <= REL_TOL, (f"word {i}: length {n}, split at {cut}, "
                                    f"relative difference {err:.3e}")
        s.check("random word split", split_check)

    for qh in (Fraction(3, 10), Fraction(1, 2)):
        qph = ncpoly.QParam(float(qh))
        for k in range(1, 11):
            s.check(f"haar_exact a'^{k} a^{k} q={float(qh)}",
                    lambda: _rel_check(gns.haar_exact(grammar.parse(f"a'^{k} a^{k}", qph)),
                                       reference.haar_astar_a(k, qh)))
    s.verify("verify covering", ["verify", "covering", "--seed", str(s.seed)])


def run_algebra(s: Session) -> None:
    # words first, so its rewriting meets caches as cold as in its own process
    run_words(s)
    run_basis(s)


_HAAR_CANCELLATION = ("canonical coefficients of a*^k a^k grow like q^(-k^2) and cancel "
                      "in haar_exact's term-by-term sum (ROADMAP item 3)")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="operators",
        why=("dense-matrix layers (rep, isodeform) at dim 420 and N=24; ncpoly rewrites "
             "only short words, so a rep change shows here and an ncpoly change must not"),
        layer_shares={"rep": 0.70, "isodeform": 0.30, "ncpoly": 0.01},
        known_defects={
            "verify deform (float theta)": (
                "generic mode keeps the cyclic shift's wraparound band as its own bidegree, "
                "so the lemma checks reject it as not homogeneous and the CLI exits 2"),
        },
        run=run_operators,
    ),
    Workload(
        name="algebra",
        why=("ncpoly-heavy: distinct deep words with little product reuse, then the "
             "GNS/Dirac path at lmax2 8 with heavy reuse across mostly-zero pairings; "
             "step spans split the two"),
        # the prototype gave ncpoly 99% on the words part alone and ncpoly 87%,
        # gns 6%, rep 3%, triple 1% on the basis part alone; these are the
        # shares of the two together
        layer_shares={"ncpoly": 0.87, "gns": 0.08, "rep": 0.04, "triple": 0.01},
        known_defects={
            "verify gns: orthonormality": (
                "Gram-Schmidt on powers of x against the Hankel moment matrix loses "
                "digits: the deepest vector e^(4)_00 has squared norm 1 + 5.7e-6 against "
                "a 1e-10 tolerance (ROADMAP item 3d)"),
            "commutator scan a^2": (
                "operator_norm's power iteration stops on a stalled Rayleigh quotient "
                "and undershoots the largest singular value at lmax2 6"),
            "commutator scan b b'": (
                "operator_norm's power iteration stops on a stalled Rayleigh quotient "
                "and undershoots the largest singular value by 1.5e-5 at lmax2 8"),
            "random word split": (
                "about one long word in a thousand normalizes with coefficients that "
                "cancel, and the two routes then disagree beyond 1e-9 (ROADMAP item 3)"),
            **{f"haar_exact a'^{k} a^{k} q=0.3": _HAAR_CANCELLATION for k in range(4, 11)},
            **{f"haar_exact a'^{k} a^{k} q=0.5": _HAAR_CANCELLATION for k in range(5, 11)},
        },
        run=run_algebra,
    ),
)}
