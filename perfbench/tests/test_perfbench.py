"""Tests of the benchmark itself (not of the lock service).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the driver the same way run.py does.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LIVE = ["live_paper_mix", "live_write_mix"]
MIXES = {"live_paper_mix": [80, 10, 4, 5, 1], "live_write_mix": [40, 5, 15, 30, 10]}
KINDS = ["entry_read", "table_read", "table_upgrade", "entry_write", "table_write"]


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def perfbench(*args):
    return subprocess.run([run.BINARY, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench did not build")

    def test_mix_proportions(self):
        for workload, pct in MIXES.items():
            out = perfbench("--workload", workload, "--seed", "11",
                            "--mix-sample", "200000")
            self.assertEqual(out.returncode, 0, out.stderr)
            shares = json.loads(out.stdout)
            self.assertEqual(list(shares), KINDS)
            for kind, want in zip(KINDS, pct):
                self.assertEqual(shares[kind]["pct"], want)
                self.assertAlmostEqual(shares[kind]["share"], want / 100, delta=0.005,
                                       msg=f"{workload} {kind}")

    def test_metric_name_grammar(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for n in names:
            self.assertRegex(n, NAME_RE)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))
        self.assertEqual([w["name"] for w in s["workloads"]], run.WORKLOADS)

    def check_result(self, out, trace):
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreater(float(json.loads(lines[0])["info"]["host_slowness"]), 0)
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in want])
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result

    def test_tiny_smoke_each_workload(self):
        for workload in run.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    out = perfbench("--workload", workload, "--seed", "3",
                                    "--seconds", "0.5", "--trace", trace, "--tiny")
                    result = self.check_result(out, trace == "1")
                    if trace == "1" and workload in LIVE:
                        self.assertEqual(result["metrics"]["net.requeued_frames"]["value"], 0)
                        self.assertEqual(result["metrics"]["net.reconnects"]["value"], 0)

    def test_tampered_expected_count_trips_gate(self):
        for workload in ("sim_hls_256", "sim_forest"):
            out = perfbench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                            "--tiny", "--tamper-expected")
            self.assertEqual(out.returncode, 1)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertIs(result["correct"], False)
            self.assertIn("pinned", out.stderr)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE + "/..", os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sim_forest",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
