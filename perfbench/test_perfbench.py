#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the compiler).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with short windows, so the first
test also builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed=1, trace=0, seconds=1, cwd=ROOT):
    """One short run: (exit code, detail object, result object)."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def test_binary_selftest(self):
        """Percentile helper exact; same seed gives the same inputs."""
        proc = subprocess.run(RUN + ["--selftest"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("selftest: ok", proc.stdout)

    def test_names_units_and_samples(self):
        """Printed metrics match BENCHMARK.json; p99 has 10 beyond."""
        for spec in BENCH["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, detail, result = run(spec["name"], trace=trace)
                self.assertEqual(code, 0, detail["problems"])
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    [(n, m["unit"]) for n, m in result["metrics"].items()],
                    [(m["name"], m["unit"]) for m in BENCH[key]])
                # Percentiles are taken per chunk of >= 1000 samples,
                # so each chunk's nearest-rank p99 has >= 10 beyond it.
                n = detail["end_to_end"]["latency_ms_p99"]["samples"]
                self.assertGreaterEqual(n, 1000)
                if trace:
                    self.assertGreaterEqual(
                        result["metrics"]["trace.coverage"]["value"], 0.9)
                    self.assertGreater(
                        result["metrics"]["trace.overhead_ratio"]["value"],
                        0)
                prov = detail["provenance"]
                self.assertEqual(prov["seed"], 1)
                self.assertIn("nproc", prov["host"])
                self.assertIn("git", prov["build_info"])

    def test_same_seed_repeats(self):
        """Same seed: identical inputs and quality numbers."""
        for spec in BENCH["workloads"]:
            runs = [run(spec["name"], seed=7) for _ in range(2)]
            digests = {d["input_digest"] for _, d, _ in runs}
            self.assertEqual(len(digests), 1)
            for name in ("speedup_geomean", "code_expansion"):
                values = {r["metrics"][name]["value"] for _, _, r in runs}
                self.assertEqual(len(values), 1, name)
            _, other, _ = run(spec["name"], seed=8)
            self.assertNotIn(other["input_digest"], digests)

    def test_fails_without_sources(self):
        """Only BENCHMARK.json and perfbench/: nonzero, no result."""
        bare = os.path.join(ROOT, ".perfbench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
