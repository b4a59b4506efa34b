"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload states --seeds 1-10 [--seconds 15] [--trace 0]

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure ``BENCHMARK.json``'s bounds are compared with.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=float(json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True, cwd=BENCH.parent, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, failed shares {sorted(shares)}, "
          f"all correct {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:34s} median {median:12.6g}  spread {spread:7.2%}  min {min(values):.6g}  max {max(values):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
