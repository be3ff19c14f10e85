"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/study.py --workload bijection --runs 10 --first-seed 1

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median.  The bounds in ``BENCHMARK.json``
come from these shares.  Raw results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    out = HERE / "out" / f"study-{args.workload}-t{args.trace}-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, all correct: {all(r['correct'] for r in runs)}, "
          f"failed shares: {sorted(shares)}")
    print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---:|---:|---:|---:|")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        print(f"| {name} | {first['unit']} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
