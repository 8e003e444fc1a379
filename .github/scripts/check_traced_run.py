"""Check the last line of a traced benchmark run, read from standard input.

    python3 bench/run.py --workload W --seed 1 --seconds 1 --trace 1 \
        | python3 .github/scripts/check_traced_run.py

The line must be strict JSON (no NaN or Infinity), report ``correct: true``
and carry exactly the per-layer metric names that BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def reject_constant(name):
    raise ValueError(f"non-finite value {name} in the result line")


def main() -> int:
    lines = sys.stdin.read().splitlines()
    if not lines:
        print("no output from the benchmark run", file=sys.stderr)
        return 1
    result = json.loads(lines[-1], parse_constant=reject_constant)
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    reported = set(result["metrics"])
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    if reported != declared:
        problems.append(f"missing metrics {sorted(declared - reported)}, "
                        f"undeclared metrics {sorted(reported - declared)}")
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"{len(reported)} declared metrics, correct")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
