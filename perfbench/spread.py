"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload eval --seeds 1-10

Each run is untraced and lasts `run_seconds`, as BENCHMARK.json sets
it.  For each end-to-end metric it prints the median of the runs and
the distance between their first and third quartiles as a share of the
median, the figure the bounds in BENCHMARK.json are checked against.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {line}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:34s} q1 {q1:12.6g}  median {median:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
