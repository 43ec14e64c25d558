"""Self-tests of the benchmark on tiny inputs (--quick).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a corrupted reference answer trips the exact-answer gate,
that traced runs write spans whose self times add up to no more than
the traced wall time and whose work counts repeat exactly, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import GateFailure  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = 0.5


def quick(name, trace, reference=REFERENCE, seed=bench.DEFAULT_SEED):
    return bench.run(name, seed, SECONDS, trace, True, reference)


def corrupt(name):
    reference = copy.deepcopy(REFERENCE)
    if name == "fit":
        reference["fit"]["rows"][0]["counts"]["E"][1] += 1
    elif name == "codebook":
        reference["codebook"]["quick"]["size"] += 1
    else:
        reference["storage"]["quick"]["loss_weights"][0] -= 1
    return reference


class Metrics(unittest.TestCase):
    def check_names_and_units(self, result, declared):
        got = {key: metric["unit"] for key, metric in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_end_to_end_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, _record = quick(name, 0)
                self.check_names_and_units(result, SPEC["end_to_end"])
                for key, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, key)

    def test_traced_run(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, record = quick(name, 1)
                self.check_names_and_units(result, SPEC["per_layer"])
                self.assertLessEqual(record["spans_self_s"], record["traced_elapsed_s"])
                spans = [json.loads(line) for line in Path(record["spans_file"]).read_text().splitlines()]
                self.assertEqual(len(spans), record["spans"])
                ids = {span["id"] for span in spans}
                for span in spans:
                    self.assertLessEqual(span["start"], span["end"])
                    self.assertLessEqual(span["self_s"], span["end"] - span["start"] + 1e-9)
                    self.assertTrue(span["parent"] == 0 or span["parent"] in ids)
                again, _ = quick(name, 1)
                counts = {
                    key: metric["value"] for key, metric in result["metrics"].items()
                    if metric["unit"] == "count"
                }
                self.assertEqual(
                    counts,
                    {key: again["metrics"][key]["value"] for key in counts},
                )


class Gate(unittest.TestCase):
    def test_corrupted_reference_trips_gate(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                with self.assertRaises(GateFailure):
                    quick(name, 0, corrupt(name))

    def test_gate_failure_exits_nonzero_without_metrics(self):
        real = bench.run

        def corrupted_run(name, seed, seconds, trace, quick_mode, reference):
            return real(name, seed, seconds, trace, quick_mode, corrupt(name))

        out, err = io.StringIO(), io.StringIO()
        bench.run = corrupted_run
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = bench.main(["--workload", "codebook", "--seed", "1",
                                     "--seconds", str(SECONDS), "--trace", "0", "--quick"])
        finally:
            bench.run = real
        self.assertEqual(status, 1)
        self.assertEqual(out.getvalue(), "")
        self.assertIn("gate failed", err.getvalue())

    def test_refuses_to_run_without_the_program(self):
        bare = bench.WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "fit", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
