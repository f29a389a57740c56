"""The benchmark's own test.

A short run (one round, `--seconds 0`) of every workload in BENCHMARK.json,
untraced and traced. Each must exit 0 with every correctness check passed,
and print every metric BENCHMARK.json names, with its unit and nothing
else; end-to-end metrics must be non-zero. Bad arguments must fail without
printing a result.

    python3 perfbench/test_bench.py
"""

import json
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    return subprocess.run(
        SPEC["command"] + list(args),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )


class BenchmarkTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_and_passes_its_checks(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    out = bench(
                        "--workload", workload["name"],
                        "--seed", "7",
                        "--seconds", "0",
                        "--trace", str(trace),
                    )
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    named = {m["name"]: m["unit"] for m in SPEC[kind]}
                    self.assertEqual(printed, named)
                    if kind == "end_to_end":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_bad_arguments_fail_without_a_result(self):
        for args in (
            ["--workload", "no_such_workload", "--seed", "1", "--seconds", "0", "--trace", "0"],
            ["--workload", "metro_stream", "--seed", "x", "--seconds", "0", "--trace", "0"],
            ["--workload", "metro_stream", "--seed", "1", "--seconds", "0", "--trace", "2"],
        ):
            with self.subTest(args=args):
                out = bench(*args)
                self.assertNotEqual(out.returncode, 0)
                self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
