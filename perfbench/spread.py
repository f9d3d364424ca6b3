#!/usr/bin/env python3
"""Runs the benchmark several times with different seeds and summarizes.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--json FILE]

Each run is `python3 perfbench/run.py --workload NAME --seed S --seconds T
--trace X` with T the run_seconds of BENCHMARK.json and S = first-seed,
first-seed + 1, ... For every metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and their distance as a
share of the median: the spread that BENCHMARK.json's bounds are checked
against. --json writes the same summary, per metric, to FILE.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", args.trace],
            cwd=run.ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    summary = {}
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "runs": len(v)}
        print(f"{name:30s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "metrics": summary}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
