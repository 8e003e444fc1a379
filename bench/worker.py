"""One workload iteration in a fresh interpreter; prints one JSON line.

`run.py` starts this script and times set-up from the moment it spawns
the process until qtriple and its CLI module are imported here, so the
package must be imported before anything else.  With ``--probe`` the
process only imports and reports.
"""

import time

import qtriple
import qtriple.cli

SETUP_DONE = time.perf_counter()

import argparse  # noqa: E402  (set-up ends above)
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out-dir", type=Path)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    record = {"setup_done": SETUP_DONE, "qtriple_file": qtriple.__file__}
    if args.probe:
        print(json.dumps(record))
        return 0

    from workloads import WORKLOADS, Session

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    session = Session(args.seed, args.out_dir, tracer.step if tracer else None)
    t0 = time.perf_counter()
    WORKLOADS[args.workload].run(session)
    record["wall_s"] = time.perf_counter() - t0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["attempted"] = session.attempted
    record["failures"] = session.failures
    if tracer is not None:
        record["layers"] = tracer.summary(session.report_bytes)
        record["absent"] = tracer.absent
        spans = args.out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        record["spans"] = tracer.write_spans(spans)
        record["spans_file"] = str(spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
