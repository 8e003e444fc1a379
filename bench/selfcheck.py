"""Checks of the benchmark itself, run through the same command line as any user.

    python3 bench/selfcheck.py definitions
        BENCHMARK.json names exactly the workloads and metrics the code emits,
        and every workload carries its reason and recorded layer shares.
    python3 bench/selfcheck.py counts [--seed N] [--seconds S]
        two traced runs per workload with one seed: every count-valued
        per-layer metric must repeat exactly.
    python3 bench/selfcheck.py spread [--runs 10] [--workload W ...]
        runs each workload with seeds 1..runs and prints, per end-to-end
        metric, the median and the quartile spread (q3 - q1) / median
        against the metric's bound.

Exit status 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import per_layer_metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} is not correct:\n{proc.stdout[-4000:]}")
    return result


def check_definitions() -> bool:
    ok = True
    spec_workloads = {w["name"]: w["why"] for w in SPEC["workloads"]}
    if spec_workloads != {w.name: w.why for w in WORKLOADS.values()}:
        print("workload names or reasons differ between BENCHMARK.json and workloads.py")
        ok = False
    for w in WORKLOADS.values():
        if not w.why or not w.layer_shares:
            print(f"workload {w.name} lacks its reason or its recorded layer shares")
            ok = False
    spec_layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if spec_layers != per_layer_metric_units():
        print("per_layer metrics in BENCHMARK.json differ from tracer.per_layer_metric_units()")
        ok = False
    spec_e2e = {m["name"] for m in SPEC["end_to_end"]}
    result = bench(SPEC["workloads"][0]["name"], 1, 1, 0)
    if set(result["metrics"]) != spec_e2e:
        print(f"end-to-end metrics emitted {sorted(result['metrics'])}, declared {sorted(spec_e2e)}")
        ok = False
    print("definitions", "ok" if ok else "FAILED")
    return ok


def check_counts(seed: int, seconds: float) -> bool:
    units = per_layer_metric_units()
    ok = True
    for name in WORKLOADS:
        first, second = (bench(name, seed, seconds, 1)["metrics"] for _ in range(2))
        differ = [f"{metric}: {first.get(metric)} vs {second.get(metric)}"
                  for metric, unit in units.items()
                  if unit != "s" and metric != "trace.overhead_ratio"
                  and first.get(metric) != second.get(metric)]
        print(f"{name}: counts {'repeat' if not differ else 'DIFFER'}")
        for line in differ:
            print(f"    {line}")
        ok &= not differ
    return ok


def check_spread(runs: int, workloads: list[str]) -> bool:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for name in workloads:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in range(1, runs + 1):
            metrics = bench(name, seed, SPEC["run_seconds"], 0)["metrics"]
            for m in bounds:
                values[m].append(metrics[m]["value"])
            print(f"{name:10s} seed {seed:2d} " + " ".join(
                f"{m} {metrics[m]['value']:.6g}" for m in bounds), flush=True)
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok" if spread < bounds[m] / 3 else ("within bound" if spread <= bounds[m] else "TOO WIDE")
            ok &= spread <= bounds[m] or m == "setup_s"
            print(f"{name:10s} {m:12s} median {med:.6g} spread {spread:.4f} "
                  f"bound {bounds[m]} {verdict}  values {[round(v, 4) for v in vals]}", flush=True)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("check", choices=("definitions", "counts", "spread"))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    if args.check == "definitions":
        ok = check_definitions()
    elif args.check == "counts":
        ok = check_counts(args.seed, args.seconds)
    else:
        ok = check_spread(args.runs, args.workload or sorted(WORKLOADS))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
