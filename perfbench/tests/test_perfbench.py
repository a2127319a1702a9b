#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; the first test builds the benchmark if needed.
Every run here is short (--seconds 1) and uses seeds kept apart from the
held-out seed in perfbench/README.md.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, script=RUN):
    done = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def check(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, out, err = run("--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace))
                self.assertEqual(code, 0, err + out)
                result = result_of(out)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class CorrectnessGate(unittest.TestCase):
    def test_injected_fault_is_reported_and_flagged(self):
        # Session 1 is quarantined through the public op-fault injection
        # site with restore off: its later ops are refused and its decision
        # stream diverges from direct feeding.
        code, out, _ = run("--workload", "gnn_dense", "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--inject-fault")
        self.assertEqual(code, 1)
        result = result_of(out)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn("correctness gate: FAIL", out)

    def test_clean_run_passes(self):
        code, out, _ = run("--workload", "gnn_dense", "--seed", "3",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertIn("correctness gate: PASS", out)


def provenance_of(stdout):
    return next(json.loads(line)["provenance"]
                for line in stdout.splitlines()
                if line.startswith('{"provenance"'))


class Tapes(unittest.TestCase):
    def test_same_seed_same_tape_other_seed_other_tape(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                digests = []
                for seed in ("4", "4", "5"):
                    code, out, err = run("--workload", workload, "--seed",
                                         seed, "--seconds", "1", "--trace",
                                         "0")
                    self.assertEqual(code, 0, err)
                    digests.append(provenance_of(out)["tape_digest"])
                self.assertEqual(digests[0], digests[1])
                self.assertNotEqual(digests[0], digests[2])


class Provenance(unittest.TestCase):
    def test_every_run_records_its_host(self):
        code, out, _ = run("--workload", "mixed_planned", "--seed", "3",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        record = provenance_of(out)
        for key in ("effective_cores", "simd_tier", "compiler", "git_sha",
                    "seed", "workers", "tape_digest"):
            self.assertIn(key, record)
        self.assertEqual(record["seed"], 3)
        self.assertEqual(record["workers"], 1)
        self.assertGreater(record["effective_cores"], 0)


class SteadinessHelper(unittest.TestCase):
    def test_reports_median_and_iqr_per_metric(self):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "steady.py"), "--runs", "2",
             "--seconds", "1", "--first-seed", "3", "gnn_dense"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertIn(done.returncode, (0, 1), done.stderr)
        for metric in SPEC["end_to_end"]:
            self.assertRegex(done.stdout,
                             metric["name"] + r"\s+median \S+\s+IQR/median ")


class StandAlone(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, out, _ = run("--workload", "gnn_dense", "--seed", "3",
                               "--seconds", "1", "--trace", "0", cwd=tmp,
                               script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertEqual(out.strip(), "")


if __name__ == "__main__":
    unittest.main()
