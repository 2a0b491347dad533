#!/usr/bin/env python3
"""Tests of the benchmark itself, at a one-second run length.

Run from the root of a checkout:

    python3 -m unittest perfbench/test_bench.py

Each test runs perfbench/run.py (which builds dsmbench on first use).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics every run prints by name and unit (the JSON line
# carries the subset BENCHMARK.json names).
PRINTED = {
    "ops_per_s": "ops/s", "read_p50_us": "us", "read_p99_us": "us",
    "write_p50_us": "us", "write_p99_us": "us", "acquire_p50_us": "us",
    "acquire_p99_us": "us", "release_p50_us": "us", "release_p99_us": "us",
    "barrier_p50_us": "us", "barrier_p99_us": "us", "msgs_per_op": "msg/op",
    "wire_bytes_per_op": "B/op", "setup_s": "s", "peak_rss_mib": "MiB",
    "error_rate": "ratio",
}


def bench(workload, seed=1, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    report = None
    for line in lines:
        if line.startswith("report: "):
            report = json.loads(Path(line[len("report: "):]).read_text())
    return proc, result, report


class MetricsTest(unittest.TestCase):
    def check_line(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_prints_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, result, report = bench(w["name"])
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_line(result, SPEC["end_to_end"])
                for name, unit in PRINTED.items():
                    self.assertRegex(proc.stdout, rf"\n  {name} +\S+  {unit} ")
                self.assertEqual(report["e2e"]["error_rate"]["value"], 0)

    def test_traced_run_prints_per_layer_metrics_and_perfetto(self):
        proc, result, report = bench("hotspot", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.check_line(result, SPEC["per_layer"])
        trace = json.loads(Path(report["perfetto"]).read_text())
        ops = [e for e in trace["traceEvents"] if e.get("name") == "gos.acquire"]
        self.assertTrue(ops)
        self.assertRegex(ops[0]["args"]["op"], r"^\d+:\d+$")


class CorrectnessGateTest(unittest.TestCase):
    def test_wrong_reference_fails_every_op_and_the_command(self):
        proc, result, report = bench("hotspot", 1, 0, "--corrupt-reference")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(report["e2e"]["error_rate"]["value"], 1)
        self.assertIn("checksum", report["rounds"][0]["why"])

    def test_seed_moves_delays_but_not_the_checksum(self):
        runs = [bench("migratory", seed)[2] for seed in (1, 2)]
        for r in runs:
            self.assertEqual(r["failed"], 0)
            self.assertEqual(r["checksum"], r["reference_checksum"])
        self.assertEqual(runs[0]["checksum"], runs[1]["checksum"])
        self.assertNotEqual(runs[0]["delay_schedule"]["digest"],
                            runs[1]["delay_schedule"]["digest"])
        self.assertEqual(runs[0]["provenance"]["seed"], 1)
        self.assertEqual(runs[1]["provenance"]["seed"], 2)


if __name__ == "__main__":
    unittest.main()
