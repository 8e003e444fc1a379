"""Command-line front end: normalization, verification suites, spectral dumps.

Exit codes are a frozen contract: 0 all checks pass, 1 a check failed,
2 usage/configuration/parse error.  Every report echoes the full run
configuration (q, cutoffs, theta, seed, tolerances) for provenance, and all
randomized suites derive from the --seed flag, so runs are reproducible.
Set QTRIPLE_LOG=debug|info|... to control logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import logging
import math
import os
import pathlib
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from . import gns, isodeform, rep, triple
from .grammar import ParseError, parse
from .ncpoly import (
    ALPHA, CanonicalMonomial, DegreeOverflowError, NCPolynomial, QParam,
    monomials_up_to, normalize, random_polynomial, random_word, z2_act,
)
from .report import CheckResult, all_passed

log = logging.getLogger("qtriple")

DEFAULT_TOLERANCES = {
    "relations": 1e-12,
    "normal_form": 1e-10,
    "haar": None,          # computed from the Haar check's window: 10 q^(2 N_F)
    "haar_series": 1e-14,
    "orthonormality": 1e-10,
    "overlap": 1e-8,
    "parity": 0.0,
    "covering": 0.0,
    "deform": 1e-13,
    "twisted": 1e-13,
    "commutator_drift": 0.05,
}

SUITES = ("relations", "gns", "parity", "covering", "triple", "deform")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    q: float = 0.5
    lmax2: int | None = None
    fock_dim: int = 16
    z_band: int = 8
    margin: int = 2
    theta: str = "1/4"
    n: int = 4
    seed: int = 0
    out: str | None = None
    fmt: str | None = None
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"q must satisfy 0 < q < 1, got {self.q}")
        if self.lmax2 is not None and self.lmax2 < 0:
            raise ConfigError("lmax2 must be nonnegative")
        for name, tol in self.tolerances.items():
            if tol is not None and not 0.0 <= tol < math.inf:
                raise ConfigError(f"tolerance {name} must be finite and nonnegative, got {tol}")

    @property
    def qp(self) -> QParam:
        return QParam(self.q)

    def trunc(self, margin: int = 0) -> rep.TruncationSpec:
        try:
            return rep.TruncationSpec(self.fock_dim, self.z_band, margin)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def basis_lmax2(self, default: int) -> int:
        """--lmax2, or the command's default, for a command that builds the GNS basis."""
        lmax2 = self.lmax2 if self.lmax2 is not None else default
        if lmax2 > gns.LMAX2_CAP:
            raise ConfigError(f"the GNS basis needs lmax2 <= {gns.LMAX2_CAP}, got {lmax2}")
        return lmax2

    def haar_window(self) -> rep.TruncationSpec:
        """The Haar check's window: its degree-6 scan needs z_band >= 6."""
        return rep.TruncationSpec(max(self.fock_dim, 24), max(self.z_band, 6))

    def tol(self, name: str) -> float:
        t = self.tolerances.get(name)
        if t is None and name == "haar":
            # that window's tail bound 10 q^(2 N_F), floored at machine precision
            return max(10.0 * self.q ** (2 * self.haar_window().fock_dim), 1e-15)
        return t

    def echo(self) -> dict:
        return {
            "q": self.q, "lmax2": self.lmax2, "fock": self.fock_dim,
            "zband": self.z_band, "margin": self.margin, "theta": self.theta,
            "n": self.n, "seed": self.seed,
            "tolerances": {k: (v if v is not None else self.tol(k))
                           for k, v in self.tolerances.items()},
        }


def _write_out(path: str, write) -> None:
    """Call write(path).  An OSError that names ``path`` comes from opening
    the user's --out and is a user error; any other propagates."""
    try:
        write(path)
    except OSError as exc:
        if exc.filename != path:
            raise
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from None


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        _write_out(cfg.out, lambda path: pathlib.Path(path).write_text(text))
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _coeff_str(c: complex, q: float) -> str:
    """Numeric coefficient, annotated with the matching q power when there is one."""
    if abs(c.imag) <= 1e-12 * max(1.0, abs(c)):
        body = f"{c.real:.12g}"
        mag = abs(c.real)
        if mag > 0:
            k = round(math.log(mag) / math.log(q))
            if k != 0 and abs(mag - q ** k) <= 1e-12 * mag and abs(k) <= 128:
                sign = "-" if c.real < 0 else ""
                return f"{body} ({sign}q^{k})"
        return body
    return f"({c.real:.12g}{c.imag:+.12g}i)"


def render_poly(p: NCPolynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mon in sorted(p.terms, key=lambda m: (m.degree, -m.alpha, m.beta)):
        parts.append(f"{_coeff_str(p.terms[mon], p.qp.q)} * {mon}")
    return "  +  ".join(parts)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_normalize(args, cfg: RunConfig) -> int:
    poly = parse(args.expr, cfg.qp)
    if cfg.fmt == "json":
        _emit(json.dumps(poly.to_json_dict()), cfg)
        return 0
    lines = [f"canonical form: {render_poly(poly)}"]
    if not poly.is_zero():
        degs = {m.degree % 2 for m in poly.terms}
        parity = {0: "even", 1: "odd"}.get(next(iter(degs)), "mixed") if len(degs) == 1 else "mixed"
        charges = sorted({m.charges for m in poly.terms})
        lines.append(f"degree: {poly.degree()}   parity: {parity}   charges: {charges}")
    _emit("\n".join(lines), cfg)
    return 0


def cmd_haar(args, cfg: RunConfig) -> int:
    poly = parse(args.expr, cfg.qp)
    exact = gns.haar_exact(poly)
    numeric = gns.haar_numeric(poly, cfg.trunc())
    data = {"exact": [exact.real, exact.imag],
            "numeric": [numeric.real, numeric.imag],
            "abs_diff": abs(exact - numeric),
            "config": cfg.echo()}
    if cfg.fmt == "json":
        _emit(json.dumps(data), cfg)
    else:
        _emit(f"haar exact   = {exact:.15g}\nhaar numeric = {numeric:.15g}\n"
              f"|difference| = {abs(exact - numeric):.3e}", cfg)
    return 0


def cmd_gram(args, cfg: RunConfig) -> int:
    lmax2 = cfg.basis_lmax2(3)
    basis = gns.gram_schmidt_basis(lmax2, cfg.qp)
    labels = basis.labels()
    worst = gns.basis_orthonormality_defect(basis)
    data = {
        "config": cfg.echo(),
        "lmax2": lmax2,
        "labels": len(labels),
        "per_l_counts": {str(l2): sum(1 for lab in labels if lab[0] == l2)
                         for l2 in range(lmax2 + 1)},
        "max_orthonormality_defect": worst,
    }
    if cfg.fmt == "json":
        _emit(json.dumps(data), cfg)
    else:
        _emit("\n".join([f"labels: {data['labels']} (lmax2={lmax2})",
                         f"per-l counts: {data['per_l_counts']}",
                         f"max orthonormality defect: {worst:.3e}"]), cfg)
    return 0


def cmd_spectrum(args, cfg: RunConfig) -> int:
    lmax2 = cfg.lmax2 if cfg.lmax2 is not None else 4
    rows = triple.spectrum_rows(lmax2, "oriented") + triple.spectrum_rows(lmax2, "unoriented")
    if cfg.fmt == "json":
        _emit(json.dumps({"config": cfg.echo(), "rows": rows}), cfg)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["l2", "j2-class", "eig", "mult", "sector"])
    for r in rows:
        writer.writerow([r["l2"], r["j2_class"], r["eig"], r["mult"], r["sector"]])
    _emit(buf.getvalue(), cfg)
    return 0


def cmd_dump_basis(args, cfg: RunConfig) -> int:
    lmax2 = cfg.basis_lmax2(3)
    basis = gns.gram_schmidt_basis(lmax2, cfg.qp)
    _emit(json.dumps(basis.to_json_dict()), cfg)
    return 0


def cmd_dump_matrix(args, cfg: RunConfig) -> int:
    poly = parse(args.expr, cfg.qp)
    fmt = cfg.fmt or "json"
    if fmt not in ("json", "bin"):
        raise ConfigError(f"matrix format must be json or bin, got {fmt}")
    if not cfg.out:
        raise ConfigError("dump-matrix requires --out")
    mat = rep.represent(poly, cfg.trunc())
    _write_out(cfg.out, lambda path: rep.save_matrix(mat, path, fmt))
    return 0


# ---------------------------------------------------------------------------
# Verification suites: suite_<name>(cfg) -> (checks, extra), where extra
# holds the report keys that follow "all_pass"
# ---------------------------------------------------------------------------

def suite_relations(cfg: RunConfig) -> tuple[list[CheckResult], dict]:
    checks = []
    if cfg.margin < 1:
        raise ConfigError(f"relations need margin >= 1, got {cfg.margin}")
    t = cfg.trunc(cfg.margin)
    if t.margin + 2 > min(t.fock_dim - 1, t.z_band):
        raise ConfigError(f"relations need margin + 2 <= min(fock - 1, zband), got {t.margin} + 2")
    tol = cfg.tol("relations")
    for name, value in rep.relation_residuals(t, cfg.qp).items():
        checks.append(CheckResult(f"relation {name}", value <= tol,
                                  f"interior residual at margin {t.margin}+2", tol, value))
    rng = random.Random(cfg.seed)
    cap = min(8, t.fock_dim - 1, t.z_band)  # a longer word could graze the window's edges
    words = [random_word(rng, max_len=cap) for _ in range(200)]
    tol_nf = cfg.tol("normal_form")
    forms = [normalize(w, cfg.qp) for w in words]
    # relative to 1 or the normal form's largest coefficient (1e10 at small q)
    scales = [max([1.0, *map(abs, nf.terms.values())]) for nf in forms]
    residuals = rep.normal_form_residual(words, cfg.trunc(), cfg.qp, forms)
    worst = max([0.0, *(r / s for r, s in zip(residuals, scales))])
    detail = "relative interior residual, margin = word length" + (f" <= {cap}" if cap < 8 else "")
    checks.append(CheckResult("normal-form oracle (200 words)", worst <= tol_nf,
                              detail, tol_nf, worst))
    return checks, {"metrics": {"edge_defect": rep.edge_defect(cfg.trunc(), cfg.qp)}}


def suite_gns(cfg: RunConfig) -> tuple[list[CheckResult], dict]:
    checks = []
    qp = cfg.qp
    q = cfg.q
    t24 = cfg.haar_window()
    tol_haar = cfg.tol("haar")
    worst = 0.0
    for mon in monomials_up_to(6):
        p = NCPolynomial.monomial(qp, mon)
        worst = max(worst, abs(gns.haar_exact(p) - gns.haar_numeric(p, t24)))
    floored = ", tolerance floored at machine precision" if cfg.tolerances["haar"] is None else ""
    checks.append(CheckResult("haar exact vs numeric (deg <= 6)", worst <= tol_haar,
                              f"fock_dim {t24.fock_dim}{floored}", tol_haar, worst))

    tol_series = cfg.tol("haar_series")
    worst = 0.0
    for n in range(7):
        p = NCPolynomial.monomial(qp, CanonicalMonomial(0, n, n))
        series = (1.0 - q * q) / (1.0 - q ** (2 * (n + 1)))
        worst = max(worst, abs(gns.haar_exact(p) - series))
    checks.append(CheckResult("haar (bb*)^n vs geometric series", worst <= tol_series,
                              "n <= 6", tol_series, worst))

    lmax2 = cfg.basis_lmax2(3)
    basis = gns.gram_schmidt_basis(lmax2, qp)
    labels = basis.labels()
    tol_orth = cfg.tol("orthonormality")
    worst = gns.basis_orthonormality_defect(basis)
    checks.append(CheckResult("orthonormality", worst <= tol_orth,
                              f"lmax2 {lmax2}; Gram of the node vectors", tol_orth, worst))

    counts_ok = all(sum(1 for lab in labels if lab[0] == l2) == (l2 + 1) ** 2
                    for l2 in range(lmax2 + 1))
    checks.append(CheckResult("label counts (2l+1)^2", counts_ok, f"lmax2 {lmax2}",
                              None, 0.0 if counts_ok else 1.0))

    tol_overlap = cfg.tol("overlap")
    worst = gns.matrix_coefficient_defect(basis)
    checks.append(CheckResult("matrix coefficients match Gram-Schmidt", worst <= tol_overlap,
                              "1 - |overlap|, node pairing", tol_overlap, worst))
    return checks, {}


def suite_parity(cfg: RunConfig) -> tuple[list[CheckResult], dict]:
    basis = gns.gram_schmidt_basis(cfg.basis_lmax2(5), cfg.qp)
    return triple.check_parity(basis, cfg.tol("parity")), {}


def suite_covering(cfg: RunConfig) -> tuple[list[CheckResult], dict]:
    checks = []
    tol = cfg.tol("covering")
    cert = triple.certify_covering(8, cfg.qp)
    expected = sum((d + 1) ** 2 for d in range(1, 9, 2))
    checks.append(CheckResult("odd monomials decompose (deg <= 8)",
                              cert.odd_count == expected,
                              f"{cert.odd_count} of {expected} monomials", None,
                              float(expected - cert.odd_count)))
    rng = random.Random(cfg.seed)
    worst = 0.0
    for _ in range(100):
        a = random_polynomial(rng, cfg.qp, max_degree=4, n_terms=3)
        b = random_polynomial(rng, cfg.qp, max_degree=4, n_terms=3)
        prod = triple.hilbert_module_product(a, b)
        worst = max(worst, z2_act(prod).max_coeff_diff(prod))
    checks.append(CheckResult("module products sign-flip fixed", worst <= tol,
                              "100 random pairs", tol, worst))
    return checks, {}


def suite_triple(cfg: RunConfig) -> tuple[list[CheckResult], dict]:
    lmax2 = cfg.basis_lmax2(4)
    result = triple.assemble_unoriented_triple(lmax2, cfg.qp, seed=cfg.seed)
    checks = list(result["checks"])

    rows = triple.summability_scan(20, 4.0)
    incs = [r["increment"] for r in rows]
    window = [i for i in range(1, 17) if rows[i]["l2"] > 6]
    mono = all(incs[i] < incs[i - 1] for i in range(1, len(incs)))
    ratio_ok = all(incs[i] / incs[i - 1] < 0.9 for i in window)
    checks.append(CheckResult("summability s=4 increments decay", mono and ratio_ok,
                              "monotone, ratio < 0.9 beyond l = 3 (scan to l = 8)", 0.9,
                              max((incs[i] / incs[i - 1] for i in window), default=0.0)))

    rows3 = triple.summability_scan(40, 3.0)
    dev = max(abs(r["increment"] * (r["l2"] + 1) - 1.0)
              for r in rows3 if 10 <= r["l2"] <= 40)
    checks.append(CheckResult("summability s=3 harmonic trend", dev <= 0.1,
                              "increments ~ 1/(2l+1) on l in [5, 20]", 0.1, dev))

    drift_tol = cfg.tol("commutator_drift")
    alpha = NCPolynomial.generator(cfg.qp, ALPHA)
    norms = triple.commutator_norm_scan(alpha, cfg.qp, [3, 4, 5, 6])
    drift = abs(norms[-1] - norms[-2]) / norms[-2]
    checks.append(CheckResult("commutator norm stabilizes", drift < drift_tol,
                              f"norms at lmax2 3..6: {[round(n, 6) for n in norms]}",
                              drift_tol, drift))
    return checks, {"spectrum": triple.aggregate_spectrum(result["restricted"])}


def suite_deform(cfg: RunConfig) -> tuple[list[CheckResult], dict]:
    try:
        model = isodeform.build_model(cfg.n, cfg.theta)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc))
    tol = cfg.tol("deform")
    checks = []
    residuals = []
    gens = dict(model.generators())
    # a phase diagonal on the first factor: homogeneous of bidegree (0, 0)
    # but noncommuting with the shift, so the commutator identity is
    # exercised with a nonvanishing right-hand side as well
    omega = np.exp(2j * np.pi / model.n)
    gens["phase"] = isodeform.BigradedOp(model, {(0, 0): omega ** model.p_index(1)})
    worst_a = worst_b = 0.0
    for xn, x in gens.items():
        for yn, y in gens.items():
            # lemma A holds per pair of homogeneous components (in generic
            # mode a cyclic shift splits into a band and its wraparound);
            # lemma B is bilinear and is checked componentwise inside
            ra = max(isodeform.verify_lemma_a(cx, cy, model)
                     for cx in x.parts() for cy in y.parts())
            rb = isodeform.verify_lemma_b(x, y, model)
            residuals.append({"lemma": "A", "x": xn, "y": yn, "residual": ra})
            residuals.append({"lemma": "B", "x": xn, "y": yn, "residual": rb})
            worst_a = max(worst_a, ra)
            worst_b = max(worst_b, rb)
    checks.append(CheckResult("twisted commutator identity", worst_a <= tol,
                              "generator pairs", tol, worst_a))
    checks.append(CheckResult("twist multiplicativity", worst_b <= tol,
                              "generator pairs, left and right", tol, worst_b))
    checks.extend(isodeform.twisted_triple_check(model, tol=cfg.tol("twisted")))
    return checks, {"residuals": residuals}


def cmd_verify(args, cfg: RunConfig) -> int:
    # looked up at call time, so a suite replaced on the module is the one run
    checks, extra = globals()[f"suite_{args.suite}"](cfg)
    report = {
        "suite": args.suite,
        "config": cfg.echo(),
        "checks": [c.to_dict() for c in checks],
        "all_pass": all_passed(checks),
        **extra,
    }
    _emit(json.dumps(report, indent=2), cfg)
    for c in checks:
        log.info("%-45s %s  value=%s", c.name, "PASS" if c.passed else "FAIL", c.value)
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _add_options(ap: argparse.ArgumentParser) -> None:
    # SUPPRESS defaults: subcommand-position flags must not clobber values
    # parsed before the subcommand; RunConfig's field defaults fill the rest.
    # Each dest is a RunConfig field name, except --tol's.
    s = argparse.SUPPRESS
    ap.add_argument("--q", type=float, default=s, help="deformation parameter (0, 1)")
    ap.add_argument("--lmax2", type=int, default=s,
                    help="twice the top representation label")
    ap.add_argument("--fock", type=int, default=s, dest="fock_dim", metavar="FOCK")
    ap.add_argument("--zband", type=int, default=s, dest="z_band", metavar="ZBAND")
    ap.add_argument("--margin", type=int, default=s)
    ap.add_argument("--theta", type=str, default=s,
                    help="deformation angle, rational p/N or float")
    ap.add_argument("--n", type=int, default=s, help="cyclic model order")
    ap.add_argument("--seed", type=int, default=s)
    ap.add_argument("--out", type=str, default=s)
    ap.add_argument("--format", type=str, default=s, dest="fmt",
                    choices=("json", "csv", "bin", "text"))
    ap.add_argument("--tol", action="append", default=s,
                    help="override a tolerance, e.g. --tol relations=1e-10")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="qtriple",
        description="quantum SO(3) spectral-triple toolkit")
    _add_options(ap)
    common = argparse.ArgumentParser(add_help=False)
    _add_options(common)

    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("normalize", parents=[common],
                       help="canonical form of an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_normalize)
    p = sub.add_parser("haar", parents=[common],
                       help="invariant-state value of an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_haar)
    p = sub.add_parser("gram", parents=[common],
                       help="orthonormality summary of the GNS basis")
    p.set_defaults(func=cmd_gram)
    p = sub.add_parser("spectrum", parents=[common],
                       help="Dirac eigenvalue/multiplicity table")
    p.set_defaults(func=cmd_spectrum)
    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("dump-basis", parents=[common], help="GNS basis as JSON")
    p.set_defaults(func=cmd_dump_basis)
    p = sub.add_parser("dump-matrix", parents=[common],
                       help="representation matrix of an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_dump_matrix)
    return ap


def _config_from(args) -> RunConfig:
    """The run configuration of the options given; the others keep RunConfig's defaults."""
    tolerances = dict(DEFAULT_TOLERANCES)
    for item in getattr(args, "tol", []):
        if "=" not in item:
            raise ConfigError(f"bad --tol entry {item!r}, expected name=value")
        name, _, value = item.partition("=")
        if name not in tolerances:
            raise ConfigError(f"unknown tolerance {name!r}")
        try:
            tolerances[name] = float(value)
        except ValueError:
            raise ConfigError(f"bad --tol value {value!r} for {name}") from None
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(**{k: v for k, v in vars(args).items() if k in fields},
                     tolerances=tolerances)


def main(argv=None) -> int:
    level = os.environ.get("QTRIPLE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    # the one place where a user error becomes exit 2; any other exception,
    # a plain ValueError included, is an internal fault and propagates
    try:
        return args.func(args, _config_from(args))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except gns.GramSingularError as exc:
        print(f"configuration error: {exc} (extreme q and depth degenerate the "
              "sector measure; lower --lmax2 or use a moderate q)", file=sys.stderr)
    except (ConfigError, DegreeOverflowError, isodeform.GradingError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
