#!/usr/bin/env python3
"""Build and run the repository benchmark described in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the simulator libraries and the
cobra_perfbench program (perfbench/CMakeLists.txt) under .bench_build/, or
under $CARGO_TARGET_DIR when that is set; later calls only re-check the
build. Build output goes to standard error, cobra_perfbench's summary to
standard output, and the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
that BENCHMARK.json lists. cobra_perfbench's full report (configuration, digest,
per-row cycles and fingerprints) and, when traced, its spans are written
beside the build as report-<workload>.json and spans-<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(out):
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "cobra_perfbench"


def check_metrics(result, traced):
    """The metrics must be exactly the ones BENCHMARK.json lists."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(expected.items()))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    out = build_dir()
    program = build(out)
    report = out / f"report-{args.workload}.json"
    spans = out / f"spans-{args.workload}.json"
    for stale in (report, spans):
        stale.unlink(missing_ok=True)
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--report", str(report), "--spans", str(spans)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"cobra_perfbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"cobra_perfbench exited with code {proc.returncode}")

    result = json.loads(report.read_text())["result"]
    check_metrics(result, traced=args.trace == "1")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
