#!/usr/bin/env python3
"""Checks of the repository benchmark itself.

Usage, from the repository root (about a minute and a half once built):

    python3 perfbench/test_perfbench.py

It runs one short pass of every workload through run.py, untraced and
traced, and checks that:
  * every metric BENCHMARK.json names is reported, with its unit, and no
    run fails or is attempted zero times;
  * the simulated-result digest is the same traced and untraced;
  * the layers a workload bypasses show no work (daxpy_stream: no COBRA
    round time, sample batches, tjit flushes or checkpoints; npb_adaptive:
    no sampled-mode round time);
  * npb_adaptive's lu/mg/cg rows reproduce the cycles of the quick paper
    suite's golden report (tests/golden/bench_quick_metrics.json), so the
    benchmark measures the same program as cobra_bench;
  * cobra_perfbench refuses COBRA_* environment variables and unknown
    workloads.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ("npb_adaptive", "daxpy_stream", "npb_sampled")
SEED = 7


def bench(workload, trace, env=None, seconds=1):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          env=env)


class PerfbenchTest(unittest.TestCase):
    results = {}  # (workload, trace) -> (result, digest, report)

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = bench(workload, trace)
                if proc.returncode != 0:
                    raise AssertionError(f"{workload} trace={trace} failed:\n"
                                         f"{proc.stderr[-2000:]}")
                digest = re.search(r"^digest (\w+)$", proc.stdout, re.M)
                report = json.loads(
                    (run.build_dir() / f"report-{workload}.json").read_text())
                cls.results[(workload, trace)] = (
                    json.loads(proc.stdout.strip().splitlines()[-1]),
                    digest.group(1), report)

    def test_metrics_present_with_units(self):
        for (workload, trace), (result, _, _) in self.results.items():
            listed = self.spec["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in listed})

    def test_end_to_end_metrics_nonzero(self):
        for workload in WORKLOADS:
            result = self.results[(workload, 0)][0]
            for name, m in result["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(m["value"], 0.0)

    def test_digest_identical_traced_and_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.results[(workload, 0)][1],
                                 self.results[(workload, 1)][1])

    def test_bypassed_layers_do_no_work(self):
        daxpy = self.results[("daxpy_stream", 1)][0]["metrics"]
        for name in ("cobra.round_s", "perfmon.batches", "tjit.flushes",
                     "machine.checkpoints", "cobra.attach_s"):
            with self.subTest(metric=name):
                self.assertEqual(daxpy[name]["value"], 0.0)
        adaptive = self.results[("npb_adaptive", 1)][0]["metrics"]
        self.assertEqual(adaptive["perfmon.sample_round_s"]["value"], 0.0)
        self.assertGreater(adaptive["cobra.round_s"]["value"], 0.0)
        self.assertGreater(adaptive["tjit.flushes"]["value"], 0.0)
        sampled = self.results[("npb_sampled", 1)][0]["metrics"]
        self.assertGreater(sampled["perfmon.sample_round_s"]["value"], 0.0)
        self.assertGreater(sampled["machine.checkpoints"]["value"], 0.0)

    def test_npb_adaptive_reproduces_golden_cycles(self):
        golden = json.loads(
            (run.ROOT / "tests/golden/bench_quick_metrics.json").read_text())
        expected = {}
        for e in golden["experiments"]:
            machine = {"npb_smp": "smp4", "npb_numa": "numa8"}.get(e["name"])
            for row in e["rows"] if machine else ():
                if row["mode"] != "static.excl":
                    expected[f"{row['benchmark']}@{machine}:{row['mode']}"] = (
                        row["cycles"])
        self.assertEqual(len(expected), 18)
        report = self.results[("npb_adaptive", 0)][2]
        got = {r["name"]: r["cycles"] for r in report["rows"]}
        for name, cycles in expected.items():
            with self.subTest(row=name):
                self.assertEqual(got[name], cycles)

    def test_cobra_speedup_is_1_049(self):
        result = self.results[("npb_adaptive", 0)][0]
        self.assertAlmostEqual(result["metrics"]["cobra_speedup"]["value"],
                               1.049, places=3)

    def test_rejects_cobra_environment(self):
        env = dict(os.environ, COBRA_TJIT="off")
        proc = bench("npb_adaptive", 0, env=env, seconds=0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("COBRA_TJIT", proc.stderr)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_rejects_unknown_workload(self):
        proc = bench("nosuch", 0, seconds=0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("nosuch", proc.stderr)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
