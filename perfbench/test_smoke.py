"""Fast smoke test of the benchmark at tiny problem sizes.

    python3 perfbench/test_smoke.py   # or: python3 -m pytest perfbench/test_smoke.py

Shows that every metric named in BENCHMARK.json is printed with its unit,
untraced and traced, and that each correctness check fails when given a
corrupted artifact. Takes about 15 s.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import NAMES, ROOT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = run.OUT / "smoke"


def bench_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


def rewrite_rounds(path: Path, column: str, change) -> None:
    """Apply `change` to `column` in every row of a rounds.csv."""
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    for row in rows:
        row[column] = repr(change(float(row[column])))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(out.getvalue())


class PrintsEveryMetric(unittest.TestCase):
    def check_run(self, workload: str, trace: int, section: str) -> None:
        proc = bench_run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, entry in result["metrics"].items():
            self.assertTrue(math.isfinite(entry["value"]), name)

    def test_untraced(self):
        for workload in NAMES:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, "end_to_end")

    def test_traced(self):
        for workload in NAMES:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, "per_layer")

    def test_fails_without_sources(self):
        bare = SMOKE / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", "test_*"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class ChecksCatchCorruption(unittest.TestCase):
    """Each check passes on a fresh sweep and fails on a corrupted copy."""

    @classmethod
    def setUpClass(cls):
        cls.benches = {}
        for workload in NAMES:
            bench = run.Bench(workload, 5, tiny=True)
            bench.set_up()
            bench.out = SMOKE / workload
            bench.sweep("clean")
            cls.benches[workload] = bench

    def corrupted(self, workload: str):
        """A fresh copy of the clean sweep, and a function checking it."""
        bench = self.benches[workload]
        copy = bench.out / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(bench.out / "clean", copy)
        return copy, lambda: checks.check_sweep(copy, bench.cfg, bench.problem,
                                                bench.oracle)

    def first_variant(self, out: Path, contains: str = "") -> Path:
        return next(p for p in sorted((out / "variants").iterdir())
                    if contains in p.name)

    def edit_summary(self, out: Path, change) -> None:
        path = out / "summary.json"
        summary = json.loads(path.read_text())
        change(summary)
        path.write_text(json.dumps(summary))

    def test_clean_sweeps_pass(self):
        for workload in NAMES:
            with self.subTest(workload=workload):
                _, check = self.corrupted(workload)
                self.assertEqual(check(), [])

    def test_oracle_columns(self):
        for workload in ("noisy-small", "wide-quadratic"):
            for column in ("grad_phi_sq", "inner_err_sq"):
                with self.subTest(workload=workload, column=column):
                    out, check = self.corrupted(workload)
                    rewrite_rounds(self.first_variant(out) / "rounds.csv",
                                   column, lambda v: v * (1 + 1e-5) + 1e-6)
                    self.assertTrue(any(column in e for e in check()))

    def test_bytes(self):
        for workload in NAMES:
            with self.subTest(workload=workload):
                out, check = self.corrupted(workload)
                rewrite_rounds(self.first_variant(out) / "rounds.csv",
                               "bytes_up", lambda v: v + 8)
                self.assertTrue(any("bytes" in e for e in check()))

    def test_coverage(self):
        out, check = self.corrupted("noisy-small")
        rewrite_rounds(self.first_variant(out, "tbl1") / "rounds.csv",
                       "C_star_x_running", lambda v: v + 1)
        self.assertTrue(any("C*_x" in e for e in check()))

    def test_finite(self):
        for workload in NAMES:
            with self.subTest(workload=workload):
                out, check = self.corrupted(workload)

                def poison(summary):
                    var = next(iter(summary["variants"].values()))
                    var["final_y"][0] = float("nan")

                self.edit_summary(out, poison)
                self.assertTrue(any("non-finite" in e for e in check()))

    def test_failed_variant(self):
        out, check = self.corrupted("wide-quadratic")

        def fail(summary):
            key = next(iter(summary["variants"]))
            summary["variants"][key] = {"error": "diverged"}
            summary["failures"][key] = "diverged"

        self.edit_summary(out, fail)
        self.assertTrue(any("failed" in e for e in check()))

    def test_validation_loss(self):
        out, check = self.corrupted("logistic-topk")

        def worsen(summary):
            for var in summary["variants"].values():
                var["final_y"] = [-10.0 * v for v in var["final_y"]]

        self.edit_summary(out, worsen)
        self.assertTrue(any("validation loss" in e for e in check()))

    def test_hessian(self):
        bench = self.benches["logistic-topk"]
        problem, np = bench.problem, bench.np
        x, y = np.zeros(problem.d1), np.full(problem.d2, 0.1)
        grad = lambda xx, yy: problem.grad_g_y(0, xx, yy)  # noqa: E731
        good = lambda xx, yy: problem.hess_yy_g(0, xx, yy)  # noqa: E731
        bad = lambda xx, yy: good(xx, yy) * 1.01  # noqa: E731
        self.assertEqual(checks.check_hessian("h", good, grad, x, y), [])
        self.assertTrue(checks.check_hessian("h", bad, grad, x, y))

    def test_traced_artifacts_compare(self):
        out, _ = self.corrupted("noisy-small")
        clean = self.benches["noisy-small"].out / "clean"
        self.assertEqual(checks.compare_trees(clean, out), [])
        path = self.first_variant(out) / "rounds.csv"
        path.write_bytes(path.read_bytes().replace(b",", b";", 1))
        self.assertTrue(checks.compare_trees(clean, out))


if __name__ == "__main__":
    unittest.main()
