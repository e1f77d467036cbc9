#!/usr/bin/env python3
"""Tests of the host-speed benchmark, at the tiny size.

    python3 hostbench/test_hostbench.py

Builds the benchmark if needed (like run.py) and checks that every
workload prints every metric BENCHMARK.json names, with its unit; that
a seed reproduces its fingerprint and counts; that another seed changes
the inputs and the outcome; and that a wrong expected fingerprint fails
the run.
"""

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run as run_py  # noqa: E402


def run(workload, seed, trace):
    """Run one tiny round; returns (exit code, result line, record)."""
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--size", "tiny",
           "--rounds", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    stem = f"{workload}-tiny-seed{seed}-trace{trace}"
    record = json.loads((OUT / f"{stem}.json").read_text())
    return proc.returncode, result, record


def counts(record):
    return {k: v["value"] for k, v in record["metrics"].items()
            if v["unit"].startswith("count")}


class HostbenchTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, record = run(workload, 1, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"]
                           for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    # Metrics of layers the workload skips name the
                    # other workload they were measured on.
                    sources = record["layer_sources"]
                    self.assertLessEqual(set(sources), set(want))
                    self.assertNotIn(workload, sources.values())
                    self.assertEqual(bool(sources), trace == 1)

    def test_seed_repeats_fingerprint_and_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, first = run(workload, 2, 1)
                _, _, second = run(workload, 2, 1)
                self.assertEqual(first["fingerprint"],
                                 second["fingerprint"])
                self.assertEqual(first["inputs"], second["inputs"])
                self.assertEqual(counts(first), counts(second))

    def test_other_seed_changes_inputs_and_outcome(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, a = run(workload, 2, 0)
                _, _, b = run(workload, 3, 0)
                self.assertNotEqual(a["inputs"], b["inputs"])
                self.assertNotEqual(a["fingerprint"], b["fingerprint"])

    def test_committed_fingerprint_matches(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, record = run(workload, 1, 0)
                self.assertEqual(code, 0)
                self.assertEqual(record["fingerprint_check"],
                                 "matches expected.json")

    def test_wrong_fingerprint_fails(self):
        OUT.mkdir(exist_ok=True)
        wrong = OUT / "wrong_expected.json"
        wrong.write_text(json.dumps(
            {"tiny": {"trap_rounds": {"1": "0000000000000000"}}}))
        argv = ["run.py", "--workload", "trap_rounds", "--seed", "1",
                "--trace", "0", "--size", "tiny", "--rounds", "1"]
        stdout = io.StringIO()
        with mock.patch.object(run_py, "EXPECTED", wrong), \
                mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(stdout):
            code = run_py.main()
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        record = json.loads(
            (OUT / "trap_rounds-tiny-seed1-trace0.json").read_text())
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(record["fingerprint_check"].startswith("MISMATCH"))


if __name__ == "__main__":
    unittest.main()
