"""The benchmark's own tests: tiny runs of every workload's checks.

    python3 bench/selftest.py

Each workload is prepared, set up and run for one round at a small size,
and every operation must pass its checks.  Negative controls feed known
bad output to the checks and expect them to report it.  The file is
named so that the package's pytest run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import AeSweep, CnnTrain, Identities, _read_csv  # noqa: E402

SEED = 5


class WorkloadCase(unittest.TestCase):
    def setUp(self):
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
        self.tr = Tracer(False)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def one_round(self, workload):
        workload.prepare(self.work, SEED)
        state = workload.setup(self.work, SEED, self.tr)
        self.assertIsNone(workload.check_setup(state, SEED))
        ops, detail = workload.run_round(state, SEED, 0, self.tr)
        for op in ops:
            self.assertIsNone(op.error, op.name)
            self.assertIsNone(op.check, op.name)
            self.assertGreater(op.seconds, 0.0)
        return state, ops, detail


class TestTinyRounds(WorkloadCase):
    def test_ae_sweep(self):
        _, ops, detail = self.one_round(AeSweep(n_train=4000, n_test=500, latent=64, epochs=5))
        self.assertEqual(len(ops), 2)
        self.assertGreater(detail["epoch_s"], 0.0)

    def test_cnn_train(self):
        _, ops, _ = self.one_round(CnnTrain(n_train=256, n_test=64, widths=(8,), epochs=4))
        self.assertEqual(len(ops), 1)

    def test_identities(self):
        _, ops, detail = self.one_round(Identities(cases=20))
        self.assertEqual([op.name for op in ops],
                         ["oracle-check", "profile cnn", "profile ae", "compare"])
        self.assertGreater(detail["profile_s"], 0.0)


class TestNegativeControls(WorkloadCase):
    def setUp(self):
        super().setUp()
        self.ident = Identities(cases=20)
        self.ident.prepare(self.work, SEED)
        self.state = self.ident.setup(self.work, SEED, self.tr)
        self.assertIsNone(self.ident.check_setup(self.state, SEED))

    def test_corrupted_oracle_check_is_a_failed_check(self):
        op = self.ident.oracle_op(self.tr, corrupt=True)
        self.assertIsNone(op.error)
        self.assertIn("determinant law failed", op.check)

    def test_perturbed_profile_row_is_a_failed_check(self):
        op = self.ident.profile_op(self.tr, self.state, "cnn", 32, 32)
        self.assertIsNone(op.check)
        rows = _read_csv(self.work / "profile-cnn" / "profile.csv")
        rows[1][6] = repr(float(rows[1][6]) * (1 + 1e-5))   # q1_total of layer 1
        self.assertIn("column 6", checks.profile_rows(rows, self.state["cnn_profile"]))

    def test_flipped_grid_cell_is_a_failed_check(self):
        op = self.ident.compare_op(self.tr, self.state)
        self.assertIsNone(op.check)
        rows = _read_csv(self.work / "compare" / "grid.csv")
        row = next(r for r in rows if r[2] != r[3])
        row[4] = "+" if row[4] != "+" else ""
        self.assertIsNotNone(checks.grid_cells(rows, self.state["grid"], self.ident.alpha))

    def test_altered_dump_fails_the_read_back_check(self):
        path = self.work / "ae.entw"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 1
        path.write_bytes(bytes(raw))
        state = self.ident.setup(self.work, SEED, self.tr)
        self.assertIn("bitwise", self.ident.check_setup(state, SEED))


class TestCommand(unittest.TestCase):
    def test_refuses_a_directory_without_the_package(self):
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
        try:
            shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "identities",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_benchmark_json_names_this_directory(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["paths"], [BENCH_DIR.name])
        self.assertEqual(spec["command"][1], f"{BENCH_DIR.name}/run.py")

    def test_pytest_collects_nothing_here(self):
        names = [p.name for p in BENCH_DIR.glob("*.py")]
        self.assertFalse([n for n in names if n.startswith("test_") or n.endswith("_test.py")
                          or n == "conftest.py"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
