"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload etl-stream --seeds 1 2 3 4 5 --seconds 20

For every metric it prints the median over the runs and the inter-quartile
distance as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from ``BENCHMARK.json``.  Runs are sequential
so they never compete for the cores they measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append(result)
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {json.dumps(values)}", flush=True)
    print(f"{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = quartile_spread(values) if len(values) > 1 and med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:28s} {med:12.6g} {spread:8.4f} {bound if bound else '':>6}{flag}")


if __name__ == "__main__":
    main()
