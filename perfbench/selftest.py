"""Self-test of the benchmark at smoke sizes; run it from the root of a checkout.

    python3 perfbench/selftest.py

Runs every workload in smoke mode, untraced and traced, and checks the result
line against the schema in BENCHMARK.json. Then it corrupts one expected
digest and checks that the op is counted as failed and the run exits
non-zero, and checks that a directory holding only the benchmark fails
without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import EXTRA_WORKLOADS, tail  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1
SCRATCH = ROOT / ".perfbench_work" / "selftest"


def run_bench(*extra: str, root: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--smoke", "--seed", str(SEED)]
    proc = subprocess.run(
        [*cmd, "--seconds", "1", *extra], cwd=root, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def check_schema(self, result: dict, specs: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {spec["name"] for spec in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], spec["unit"])
            self.assertTrue(math.isfinite(metric["value"]), spec["name"])

    def test_every_workload_reports_every_metric(self):
        for name in [w["name"] for w in BENCH["workloads"]] + EXTRA_WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    args = ("--workload", name, "--trace", str(trace))
                    code, stdout = run_bench(*args)
                    self.assertEqual(code, 0, stdout)
                    result = last_json(stdout)
                    self.check_schema(result, BENCH[key])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    if trace == 0:
                        for metric_name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0.0, metric_name)

    def test_corrupted_digest_is_a_failed_op(self):
        table = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        name = BENCH["workloads"][0]["name"]
        table["smoke"][name][str(SEED)] = "0" * 64
        corrupted = SCRATCH / "expected.json"
        corrupted.write_text(json.dumps(table), encoding="utf-8")
        args = ("--workload", name, "--trace", "0", "--expected", str(corrupted))
        code, stdout = run_bench(*args)
        self.assertNotEqual(code, 0)
        result = last_json(stdout)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_benchmark_alone_fails_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        name = BENCH["workloads"][0]["name"]
        code, stdout = run_bench("--workload", name, "--trace", "0", root=bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(stdout.strip(), "")

    def test_tail_has_ten_samples_beyond_it(self):
        latencies = [float(x) for x in range(1, 41)]
        self.assertEqual(tail(latencies), (30.0, 75.0, 10))
        self.assertEqual(tail(latencies[:10]), (10.0, 100.0, 0))


if __name__ == "__main__":
    unittest.main()
