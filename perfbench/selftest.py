#!/usr/bin/env python3
"""Toy-size self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Every workload runs at a few dozen homes (run.py --toy), so the whole test
takes well under a minute once the build exists. It checks that each run
emits every BENCHMARK.json metric with its unit, that the output check
catches a flipped byte in an exported file (error_rate reads 1), and that the
benchmark fails, printing no result, where there is no source tree to build.
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                         {n: run.END_TO_END[n][0] for n in run.JSON_END_TO_END})
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]],
                         [(n, s.unit, s.better) for n, s in run.LADDER.items()])

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for trace, metrics in (("0", BENCHMARK["end_to_end"]), ("1", BENCHMARK["per_layer"])):
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark("--workload", workload, "--toy", "--seconds", "0",
                                         "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = result_line(proc.stdout)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for m in metrics:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertIsInstance(result["metrics"][m["name"]]["value"], float)
                    if trace == "0":
                        for m in metrics:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0.0)
                        self.assertIn("error_rate", proc.stdout)
                        self.assertIn("disk_mb", proc.stdout)
                    self.assertIn("build_type Release, optimised True", proc.stdout)

    def test_flipped_export_byte_fails_every_invocation(self):
        digest = run.Runner.digest

        def corrupting_digest(self, d, outputs, input_dir):
            export = d / "export"
            if export.is_dir():
                victim = sorted(export.iterdir())[0]
                data = bytearray(victim.read_bytes())
                data[len(data) // 2] ^= 0x01
                victim.write_bytes(bytes(data))
            return digest(self, d, outputs, input_dir)

        out = io.StringIO()
        run.Runner.digest = corrupting_digest
        try:
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", "fleet_10k", "--toy", "--seconds", "0"])
        finally:
            run.Runner.digest = digest
        self.assertEqual(rc, 0)
        result = result_line(out.getvalue())
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertRegex(out.getvalue(), r"error_rate +1\.0000 ratio")

    def test_fails_without_a_source_tree(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = run_benchmark("--workload", "paper_report", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
