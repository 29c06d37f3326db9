#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload ms-score --seeds 1-10 --seconds 30

Runs ``run.py --trace 0`` once per seed, one run at a time, then prints
for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
which ``BENCHMARK.json``'s bounds are held against.  The last line is the same summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
            flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "failed": failed,
               "metrics": {}}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else float("nan")
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread}
        print(f"{name:28s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.2%}")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
