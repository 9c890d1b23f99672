#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

They use small filtered runs (a few points each), so they take about a
minute once perfbench/run.py has built latbench.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, f"{BENCH_DIR.name}/run.py"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(BENCH_DIR))
import run as perfbench  # noqa: E402


def scratch_dir():
    """Temporary directory inside the checkout's benchmark output dir."""
    perfbench.OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=perfbench.OUT_DIR)


def bench(*args, cwd=ROOT):
    """(exit code, last stdout line parsed as JSON or None, stdout)."""
    proc = subprocess.run(RUN + [str(a) for a in args], cwd=cwd,
                          capture_output=True, text=True, timeout=600,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def deterministic(name, unit):
    """Work counts and simulated ratios, as opposed to host times."""
    return unit in ("count", "cycles", "bytes") or name.startswith(
        ("cache.", "dram."))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(perfbench.E2E_METRICS))

    def test_run_output_matches_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        code, result, _ = bench("--workload", "fig8-quick", "--seed", 3,
                                "--seconds", 0, "--filter", "bfs/WG-W")
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})
        code, result, _ = bench("--workload", "fig8-quick", "--seed", 3,
                                "--trace", 1, "--filter", "bfs/WG-W")
        self.assertEqual(code, 0)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         units)
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertIsInstance(m["value"], (int, float))


class TracedRun(unittest.TestCase):
    def test_counts_repeat_and_parity_holds(self):
        runs = []
        for _ in range(2):
            code, result, out = bench("--workload", "kernels-jobs4", "--seed",
                                      5, "--trace", 1, "--filter", "/WG-M/")
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"])
            self.assertIn("status parity: ok", out)
            runs.append(result["metrics"])
        counts = {k: v["value"] for k, v in runs[0].items()
                  if deterministic(k, v["unit"])}
        self.assertIn("icnt.requests_moved", counts)
        self.assertGreater(counts["scenario.next_calls"], 0)
        self.assertEqual(counts, {k: runs[1][k]["value"] for k in counts})

    def test_sampled_replay_matches_run_sampled(self):
        code, result, out = bench("--workload", "sampled-gmc", "--seed", 1,
                                  "--trace", 1, "--filter", "nw")
        self.assertEqual(code, 0, out)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["metrics"]["ckpt.warm_instructions"]
                           ["value"], 0)


class PinnedReferences(unittest.TestCase):
    def test_corrupted_digest_fails_every_point(self):
        seed, point = 2, "bfs/GMC/s2"
        with scratch_dir() as tmp:
            refs = json.loads((BENCH_DIR / "refs" / "fig8-quick.json")
                              .read_text())
            digest = refs["seeds"][str(seed)][point]
            refs["seeds"][str(seed)][point] = digest[::-1]
            (Path(tmp) / "fig8-quick.json").write_text(json.dumps(refs))
            code, result, out = bench("--workload", "fig8-quick", "--seed",
                                      seed, "--seconds", 0, "--filter",
                                      point, "--refs-dir", tmp)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("report failed_frac = 1 ratio", out)

    def test_intact_digest_passes(self):
        code, result, _ = bench("--workload", "fig8-quick", "--seed", 2,
                                "--seconds", 0, "--filter", "bfs/GMC/s2")
        self.assertEqual(code, 0)
        self.assertEqual(result["failed"], 0)


class Environment(unittest.TestCase):
    def test_fails_without_the_program(self):
        with scratch_dir() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = bench("--workload", "fig8-quick", "--seed", 1,
                                    "--seconds", 1, "--trace", 0, cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
