"""Tests of the benchmark: argument handling, the output contract, the
agreement between BENCHMARK.json and the driver, determinism, and one short
correct run of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The driver is built (or brought up to date) in the directory named by
CARGO_TARGET_DIR, default .bench_build, exactly as run.py builds it.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

WORKLOADS = ["oltp-hdd", "oltp-ssdlog", "fleet-2pc", "powercut-recover"]
# Short enough for one round per workload.
QUICK = "0.1"


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        if not build_dir.is_absolute():
            build_dir = ROOT / build_dir
        cls.binary = run.build(build_dir)
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def drive(self, *args):
        return subprocess.run([str(self.binary), *args], capture_output=True,
                              text=True, timeout=170)

    def result(self, workload, seed="1", trace="0"):
        done = self.drive("--workload", workload, "--seed", seed,
                          "--seconds", QUICK, "--trace", trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_rejects_bad_arguments(self):
        good = ["--workload", "oltp-hdd", "--seed", "1", "--seconds", "1",
                "--trace", "0"]
        for args in (
            [],
            good[:-2],
            ["--workload", "no-such"] + good[2:],
            good[:3] + ["x"] + good[4:],
            good[:5] + ["0"] + good[6:],
            good[:7] + ["2"],
            good + ["--extra", "1"],
        ):
            done = self.drive(*args)
            self.assertEqual(done.returncode, 2, args)
            self.assertEqual(done.stdout, "", args)

    def test_every_workload_is_correct_and_reports_end_to_end(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = self.result(workload)
                self.assertEqual(set(out), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(list(out["metrics"]), names)
                for name, metric in out["metrics"].items():
                    self.assertEqual(metric["unit"], units[name])
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        out = self.result("fleet-2pc", trace="1")
        self.assertTrue(out["correct"])
        self.assertEqual(list(out["metrics"]), names)
        for name, metric in out["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
        value = {k: v["value"] for k, v in out["metrics"].items()}
        self.assertGreater(value["shard.cross_frac"], 0.4)
        self.assertGreater(value["span.shard.2pc-decide.cp_share"], 0)
        self.assertGreater(value["span.bench.bench-txn.count"], 0)
        self.assertGreater(value["net.msgs_per_txn"], 0)

    def test_virtual_time_metrics_repeat_for_a_seed(self):
        virtual = ["txn_per_s", "commit_iqm_us"]
        first = self.result("oltp-ssdlog", seed="7")["metrics"]
        again = self.result("oltp-ssdlog", seed="7")["metrics"]
        other = self.result("oltp-ssdlog", seed="8")["metrics"]
        for name in virtual:
            self.assertEqual(first[name], again[name], name)
        self.assertNotEqual([first[n] for n in virtual],
                            [other[n] for n in virtual])

    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertLessEqual(len(self.spec["per_layer"]), 128)


if __name__ == "__main__":
    unittest.main()
