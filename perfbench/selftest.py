#!/usr/bin/env python3
"""Self-test of the benchmark.

* A one-second smoke run of every workload, untraced and traced, emits
  exactly the metrics ``BENCHMARK.json`` names, each with its unit, and
  finds every output correct.
* A corrupted reference digest is counted as a failed mission.
* Without the program's sources the benchmark exits non-zero and prints
  no result.
* Restoring a tracer leaves no wrapper behind, and taking the wrapper
  cost out lowers every time it records.

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_workloads import ROOT, WORK, WORKLOADS  # noqa: E402

SEED = 5


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        WORK.mkdir(exist_ok=True)

    def test_smoke_emits_every_metric_with_its_unit(self):
        for wl in self.spec["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    proc, res = bench("--workload", wl["name"], "--seed", str(SEED),
                                      "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[group]}
                    got = {name: m["unit"] for name, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_corrupted_reference_digest_is_a_failed_mission(self):
        import run

        wl = WORKLOADS["mission-artifacts"]
        refs = run.load_reference()
        missions = refs[wl.name][SEED % wl.pool]["commands"][0]["missions"]
        key = next(iter(missions))
        digest, rest = missions[key].split(",", 1)
        missions[key] = f"{int(digest, 16) ^ 1:016x},{rest}"
        sink = io.StringIO()
        cwd = os.getcwd()
        try:
            with mock.patch.object(run, "load_reference", lambda: refs), \
                    contextlib.redirect_stdout(sink):
                code = run.main(["--workload", wl.name, "--seed", str(SEED), "--seconds", "1",
                                 "--trace", "0"])
        finally:
            os.chdir(cwd)
        lines = sink.getvalue().strip().splitlines()
        res, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        self.assertEqual(code, 1)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertEqual(detail["failed_frac"], res["failed"] / res["attempted"])
        self.assertGreater(detail["failed_frac"], 0.0)

    def test_fails_without_the_program_sources(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc, res = bench("--workload", "sweep-empty", "--seed", "0", "--seconds", "1",
                              "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(res)

    def test_trace_is_restored_and_corrected(self):
        sys.path.insert(0, str(ROOT / "src"))
        import bench_trace
        from exploresim import cli

        out = WORK / "selftest-trace"
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--duration", "2", "--out", str(out)])
        finally:
            tracer.restore()
            shutil.rmtree(out, ignore_errors=True)
        self.assertEqual(code, 0)
        self.assertEqual(tracer.missing, [])
        self.assertEqual(bench_trace.installed_wrappers(), [])
        self.assertEqual(set(tracer.span_cost), {"", *bench_trace.SPECIAL})
        table = tracer.corrected()
        self.assertEqual(table.keys(), tracer.stats.keys())
        for key, (calls, total, own) in table.items():
            raw_calls, raw_total, raw_own = tracer.stats[key]
            self.assertEqual(calls, raw_calls)
            self.assertLess(total, raw_total, key)
            self.assertLessEqual(own, raw_own, key)
            self.assertLessEqual(own, total, key)


if __name__ == "__main__":
    unittest.main()
