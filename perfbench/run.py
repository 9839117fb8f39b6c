"""Layered wall-clock benchmark of the SQL+ML pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload etl-stream --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures half the run untraced and half with every layer
boundary wrapped in a span, and reports the per-layer metrics (plus a
Chrome trace under ``perfbench/out/``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A failed correctness check exits with status 1 and prints no result.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Hash-partitioned row placement (SQL shuffles, MapReduce reducers) and
#: with it every ledger byte total depend on str hashing, so the run is
#: only repeatable, and Figure 3 only reproducible, under one hash seed.
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS, CheckFailed, run

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), trace_path)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    for note in result.notes:
        print(note)
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"{name:28s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result.metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
