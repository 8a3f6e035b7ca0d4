"""Self-tests of the repository benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the benchmark (as run.py does for any run). Every run
here is a --smoke run: tiny spaces, well under a minute in total.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT, runner=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stdout + proc.stderr


class SmokeRun(unittest.TestCase):
    def check_metrics(self, result, declared, output):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"}, output)
        self.assertTrue(result["correct"], output)
        self.assertEqual(result["failed"], 0, output)
        self.assertGreaterEqual(result["attempted"], 1, output)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want, output)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float), output)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = run(w, 0)
                self.assertEqual(code, 0, out)
                self.check_metrics(result, SPEC["end_to_end"], out)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                # The per-workload metric names print with their units too.
                self.assertIn("fail_rate = 0 ", out)
                self.assertIn("setup_s = ", out)
                self.assertIn("peak_rss_mb = ", out)

    def test_traced_run_emits_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = run(w, 1)
                self.assertEqual(code, 0, out)
                self.check_metrics(result, SPEC["per_layer"], out)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if w.startswith("explore"):
                    # The ladder reached the space explore() reports.
                    self.assertEqual(m["ladder.states"], 103147)
                    self.assertEqual(m["ladder.terminals"], 24)
                    self.assertGreater(m["sim.fork.calls"], 0)
                elif w == "fuzz-faults":
                    self.assertGreater(m["fuzz.walk.calls"], 0)
                    self.assertGreater(m["consistency.check.calls"], 0)
                else:
                    self.assertGreater(m["adversary.critical_pair.calls"], 0)
                    self.assertGreater(m["codec.encode.calls"], 0)

    def test_wrong_reference_raises_fail_rate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = run(w, 0, "--wrong-reference")
                self.assertNotEqual(code, 0, out)
                self.assertIsNotNone(result, out)
                self.assertFalse(result["correct"], out)
                self.assertGreater(result["failed"], 0, out)

    def test_refuses_without_the_repository_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark's own
        # files cannot build the program: no result, non-zero exit.
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, bare / p,
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, result, out = run(WORKLOADS[0], 0, cwd=bare,
                                    runner=bare / "perfbench" / "run.py")
            self.assertNotEqual(code, 0, out)
            self.assertIsNone(result, out)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
