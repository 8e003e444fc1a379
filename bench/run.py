"""qtriple benchmark: one workload, measured in fresh interpreters.

    python3 bench/run.py --workload {operators,algebra} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src/`` directory and nothing is installed.  Each iteration is
a new process (`worker.py`), so qtriple's caches and the BLAS threads start
cold, as in every ``qtriple`` invocation.  Iterations repeat, one after the
other, while the next is expected to end within ``--seconds`` (at least
one).  Set-up is also sampled by import-only processes.

``--trace 0`` reports the end-to-end metrics (medians over iterations):
wall_s, setup_s, fail_share and peak_rss_mb.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of
`tracer.py` plus trace.overhead_ratio.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A run is
correct when every operation that failed is a known defect recorded with
its workload; known defects still count as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_SETUP_SAMPLES = 12
PROBES_PER_ROUND = 2
TIME_LIMIT_S = 170.0  # the whole run, probes included, must end within this
# One BLAS thread: with one per CPU, a stall on either CPU of a shared
# machine stalls every matrix product, and operators' wall time tripled in
# such phases; single-threaded it only slows by the stalled share.
BLAS_THREADS = 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("QTRIPLE_LOG", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.started = time.perf_counter()

    def spawn(self, *flags: str) -> dict:
        """Run one worker process; return its record with set-up time added."""
        budget = TIME_LIMIT_S - (time.perf_counter() - self.started)
        if budget <= 0:
            raise TimeoutError("time limit reached before the run finished")
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out-dir", str(OUT_DIR), *flags]
        t_spawn = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=budget)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(record["qtriple_file"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"qtriple was imported from {record['qtriple_file']}, "
                               f"not from {ROOT / 'src'}")
        record["setup_s"] = record["setup_done"] - t_spawn
        return record

    def fits(self, deadline: float, rounds: list[float]) -> bool:
        """Another round, as long as the longest so far, ends by the deadline."""
        if not rounds:
            return True
        return time.perf_counter() + max(rounds) <= min(deadline, self.started + TIME_LIMIT_S - 10)


def classify(records: list[dict], known: dict[str, str]) -> tuple[bool, int, int, list[str]]:
    """Sum attempts and failures; a run is correct if every failure is known."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    seen: dict[str, list[str]] = {}
    for r in records:
        for name, detail in r["failures"]:
            seen.setdefault(name, []).append(detail)
    unexpected = sorted(seen.keys() - known.keys())
    lines = [f"UNEXPECTED FAILURE {name}: {d}" for name in unexpected for d in sorted(set(seen[name]))]
    by_reason: dict[str, list[str]] = {}
    for name in sorted(seen.keys() & known.keys()):
        by_reason.setdefault(known[name], []).extend(f"{name} [{d}]" for d in sorted(set(seen[name])))
    for reason, names in by_reason.items():
        lines.append(f"known defect ({len(names)} operations): {reason}")
        lines.extend(f"    {n}" for n in names)
    lines.extend(f"known defect not seen: {name}" for name in sorted(known.keys() - seen.keys()))
    return not unexpected, attempted, failed, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qtriple" / "__init__.py").is_file():
        print(f"error: no qtriple sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed)

    try:
        runner.spawn("--probe")  # compiles bytecode; users do not pay that per run
        deadline = time.perf_counter() + args.seconds
        plain: list[dict] = []
        traced: list[dict] = []
        rounds: list[float] = []
        probes: list[float] = []
        while runner.fits(deadline, rounds):
            t = time.perf_counter()
            if not args.trace:
                plain.append(runner.spawn())
            elif len(rounds) % 2:  # alternate the order so drift does not bias the ratio
                traced.append(runner.spawn("--trace"))
                plain.append(runner.spawn())
            else:
                plain.append(runner.spawn())
                traced.append(runner.spawn("--trace"))
            # set-up samples spread over the run, like the iterations
            probes += [runner.spawn("--probe")["setup_s"] for _ in range(PROBES_PER_ROUND)]
            rounds.append(time.perf_counter() - t)
        setups = [r["setup_s"] for r in plain + traced] + probes
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.spawn("--probe")["setup_s"])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed, lines = classify(plain + traced, workload.known_defects)
    walls = [r["wall_s"] for r in plain]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(plain)} untraced and {len(traced)} traced iterations, "
          f"blas threads {BLAS_THREADS}, {len(setups)} set-up samples")
    print(f"wall_s samples {[round(w, 4) for w in walls]}")
    for line in lines:
        print(line)

    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "fail_share": (failed / attempted, "ratio"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    else:
        metrics, trace_ok = layer_metrics(plain, traced, workload)
        correct = correct and trace_ok
    for name, (value, unit) in metrics.items():
        if value:
            print(f"{name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(plain: list[dict], traced: list[dict], workload):
    """Per-layer metrics: times are medians over traced iterations, counts
    must repeat exactly across them."""
    units = per_layer_metric_units()
    ok = True
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_ratio":
            continue
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if len(values) < len(traced):
            continue  # absent: the function no longer exists
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) > 1:
                ok = False
                print(f"UNEXPECTED: count {name} differs between iterations: {values}")
            out[name] = (values[0], unit)
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain),
        "ratio")
    absent = sorted({a for r in traced for a in r["absent"]})
    if absent:
        print(f"absent functions: {', '.join(absent)}")
    total = sum(out[f"{layer}.self_s"][0] for layer in workload_layers(out)) or 1.0
    shares = ", ".join(f"{layer} {out[f'{layer}.self_s'][0] / total:.1%}"
                       f" (recorded {workload.layer_shares.get(layer, 0.0):.0%})"
                       for layer in workload_layers(out))
    print(f"self-time shares: {shares}")
    print(f"spans: {traced[-1]['spans']} written to {traced[-1]['spans_file']}")
    return out, ok


def workload_layers(metrics: dict) -> list[str]:
    return [name[:-len(".self_s")] for name in metrics
            if name.endswith(".self_s") and name.count(".") == 1]


if __name__ == "__main__":
    sys.exit(main())
