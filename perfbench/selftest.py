#!/usr/bin/env python3
"""Self-test of the benchmark, in smoke mode (3-point grid, 1000 samples).

    python3 perfbench/selftest.py

Checks the result schema against BENCHMARK.json for a plain and a traced
run, the correctness path at the reference seed and at another seed, that
tampered outputs are caught, and that the benchmark refuses to run without
the package.  Takes about 20 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark, imported for its checks)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKDIR = run.OUT / "selftest"


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Schema(unittest.TestCase):
    def assert_result(self, result: dict, metrics: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_untraced_reference_seed(self):
        result = result_of(bench("--workload", "mc_curves", "--seed", str(run.DEFAULT_SEED)))
        self.assert_result(result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_untraced_other_seed_threads(self):
        self.assert_result(result_of(bench("--workload", "mc_threads", "--seed", "5")),
                           SPEC["end_to_end"])

    def test_acceptance_gate(self):
        self.assert_result(result_of(bench("--workload", "acceptance_gate")), SPEC["end_to_end"])

    def test_traced(self):
        result = result_of(bench("--workload", "closed_form_curves", "--trace", "1"))
        self.assert_result(result, SPEC["per_layer"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics["measurement.samples"], 0)
        self.assertEqual(metrics["experiments.points"], 6)
        self.assertGreater(metrics["optimize.evaluations"], 0)


class Checks(unittest.TestCase):
    def setUp(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)

    def tampered(self, command: str, edit, name: str = "copy") -> Path:
        lines = (run.REFERENCE / "smoke" / f"{command}.csv").read_text().splitlines()
        path = WORKDIR / f"{command}-{name}.csv"
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    def errors(self, command: str, path: Path, seed=run.DEFAULT_SEED) -> list[str]:
        return run.verify_job(command, 0, "", path, "smoke", seed)

    def test_reference_passes(self):
        for command in ("fig1", "circle-vs-line", "fig3", "gaussian"):
            path = self.tampered(command, lambda lines: lines)
            self.assertEqual(self.errors(command, path), [], command)

    def test_ninth_digit(self):
        # f_disp_only at lambda 0 is 0.707106781 in the reference
        def bump(digits):
            return lambda ls: [ls[0], ls[1].replace("0.707106781", digits)] + ls[2:]

        one_unit = self.tampered("fig3", bump("0.707106782"), "one")
        two_units = self.tampered("fig3", bump("0.707106783"), "two")
        self.assertEqual(self.errors("fig3", one_unit), [])
        self.assertEqual(len(self.errors("fig3", two_units)), 1)

    def test_header_and_rows(self):
        bad_header = self.tampered("gaussian", lambda ls: ["lambda,f,g"] + ls[1:], "header")
        short = self.tampered("gaussian", lambda ls: ls[:-1], "short")
        self.assertTrue(self.errors("gaussian", bad_header))
        self.assertTrue(self.errors("gaussian", short))
        self.assertTrue(run.verify_job("gaussian", 1, "", short, "smoke", run.DEFAULT_SEED))

    def test_other_seed_is_statistical(self):
        def shift(lines, by):
            row = lines[1].split(",")
            row[2] = repr(float(row[2]) + by)  # f_tailored_disp_mc; its stderr is ~8.9e-3
            return [lines[0], ",".join(row)] + lines[2:]

        near = self.tampered("fig1", lambda ls: shift(ls, 0.01), "near")
        far = self.tampered("fig1", lambda ls: shift(ls, 0.1), "far")
        self.assertTrue(self.errors("fig1", near))  # exact at the reference seed
        self.assertEqual(self.errors("fig1", near, seed=5), [])
        self.assertTrue(self.errors("fig1", far, seed=5))

    def test_check_vector(self):
        def output(vector):
            return "\n".join(
                f"[{vector[n]}] criterion {n:2d} name: detail" for n in range(1, 11)
            )

        expected = dict(run.EXPECTED_CHECK)
        self.assertEqual(run.check_check_output(1, output(expected)), [])
        self.assertTrue(run.check_check_output(0, output(expected)))
        all_green = {n: "PASS" for n in range(1, 11)}
        self.assertTrue(run.check_check_output(0, output(all_green)))
        self.assertTrue(run.check_check_output(1, output({**expected, 3: "FAIL"})))

    def test_refuses_without_package(self):
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "mc_curves", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
