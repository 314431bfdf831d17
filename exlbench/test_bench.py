#!/usr/bin/env python3
"""The benchmark's own tests, on tiny stores (about a minute).

    python3 exlbench/test_bench.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that each correctness oracle trips on a deliberately corrupted
result, that another seed passes, and that a traced run's counts
repeat for the same seed.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".exlbench", "test")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seed=1, trace=0, *extra):
    """Run one tiny workload; return (result JSON, stderr)."""
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "exlbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small",
         "--work", WORK, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise AssertionError("benchmark failed:\n" + p.stderr)
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stderr


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def check_metrics(self, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in spec})
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_every_metric_is_printed_with_its_unit(self):
        names = {
            "boot": ["boot_ms", "boot_8r_ms", "first_commit_ms", "cpu_op_p50_ms", "kernel_ms"],
            "revise": ["commit_p50_ms", "commit_p90_ms", "commit_8r_p50_ms", "first_commit_ms",
                       "cpu_op_p50_ms", "kernel_ms"],
            "serve": ["read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p90_ms"],
        }
        for w in ["boot", "revise", "serve"]:
            with self.subTest(workload=w):
                result, table = bench(w)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for name in names[w] + ["setup_s", "peak_rss_mb", "failed_share", "nproc="]:
                    self.assertIn(name, table)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                traced, table = bench(w, trace=1)
                self.check_metrics(traced, SPEC["per_layer"])
                self.assertTrue(traced["correct"])
                if w == "serve":
                    for name in ["server.read_ms", "server.write_ms", "server.read_wait_ms",
                                 "server.jobs_per_commit", "gen.late_p99_ms"]:
                        self.assertIn(name, table)

    def test_each_oracle_trips_on_a_corrupted_result(self):
        for oracle, w in [("boot", "boot"), ("publish", "revise"), ("scratch", "revise"),
                          ("ryw", "serve"), ("final", "serve")]:
            with self.subTest(oracle=oracle):
                result, table = bench(w, 1, 0, "--corrupt", oracle)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("wrong result", table)

    def test_another_seed_passes(self):
        for w in ["revise", "serve"]:
            with self.subTest(workload=w):
                result, _ = bench(w, seed=987654)
                self.assertTrue(result["correct"])

    def test_counts_repeat_for_a_seed(self):
        first, _ = bench("revise", 5, 1)
        again, _ = bench("revise", 5, 1)
        self.assertTrue(first["correct"] and again["correct"])
        path = os.path.join(WORK, "counts", "revise-seed5-small.json")
        with open(path) as f:
            counts = json.load(f)
        self.assertGreater(counts["incr.facts_rederived"], 0)
        counts["incr.facts_rederived"] += 1
        with open(path, "w") as f:
            json.dump(counts, f)
        tampered, table = bench("revise", 5, 1)
        self.assertFalse(tampered["correct"])
        self.assertIn("counts differ", table)


if __name__ == "__main__":
    unittest.main()
