"""Self-tests of the benchmark: span arithmetic, checker, and wrapper hygiene.

    python3 -m pytest platebench/tests -q      (from the repository root)
"""

from __future__ import annotations

import copy
import io
import math
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
from check import load_reference, table_mismatches  # noqa: E402
from spans import WRAP_POINTS, CG_POINT, Tracer, _resolve, installed, self_times  # noqa: E402
from workloads import Table  # noqa: E402

from platenull import cli, fdm  # noqa: E402
from platenull.linalg import SpdFactorization  # noqa: E402

SMALL_TABLES = (Table("small-fdm", "fdm", 8, "0.25", "1,2"),
                Table("small-fem", "fem", 6, "0.25", "1,2"),
                Table("small-fdm-exact", "fdm", 8, "0.25", "1,2", "exact"))


class TimedWindowTest(unittest.TestCase):
    """The timed run alternates passes (3 s) and fresh processes (1 s) on a fake clock."""

    def window(self, seconds: float):
        clock = [0.0]

        def fresh(name):
            clock[0] += 1.0
            return {"import_s": 0.5, "cold_s": 0.25, "failed": 0}

        def one_pass(workload, rng):
            clock[0] += 3.0
            return 3.0

        runner = run.Runner(cli=None, reference={}, out_path=Path("unused"))
        runner.one_pass = one_pass
        setup, cold = [], []
        with mock.patch.object(run, "fresh_process_sample", fresh):
            warm = runner.timed_window(types.SimpleNamespace(name="w"), None, seconds,
                                       setup, cold,
                                       clock=lambda: clock[0])
        return warm, cold, clock[0]

    def test_minimum_samples(self):
        warm, cold, elapsed = self.window(0.0)
        self.assertEqual((len(warm), len(cold)), (1, run.MIN_FRESH))

    def test_steps_alternate_and_stay_in_window(self):
        warm, cold, elapsed = self.window(20.0)
        self.assertEqual((len(warm), len(cold), elapsed), (5, 5, 20.0))
        warm, cold, elapsed = self.window(22.0)
        self.assertEqual((len(warm), len(cold), elapsed), (5, 7, 22.0))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ["a", 0.0, 10.0, None, "t1"],
            ["b", 1.0, 4.0, 0, "t1"],
            ["c", 2.0, 3.0, 1, "t1"],
            ["d", 5.0, 9.0, 0, "t1"],
            ["a", 10.0, 12.0, None, "t2"],
        ]
        stats = self_times(spans)
        self.assertEqual(stats["a"], (2, 10.0 - 3.0 - 4.0 + 2.0))
        self.assertEqual(stats["b"], (1, 2.0))
        self.assertEqual(stats["c"], (1, 1.0))
        self.assertEqual(stats["d"], (1, 4.0))
        self.assertEqual(sum(s for _, s in stats.values()), 12.0)

    def test_tracer_records_parents_and_table(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda: None, "inner")
        outer = tracer.wrap(lambda: inner(), "outer")
        tracer.table_id = "x#1"
        outer()
        self.assertEqual(tracer.spans, [["outer", 0.0, 3.0, None, "x#1"],
                                        ["inner", 1.0, 2.0, 0, "x#1"]])
        self.assertEqual(self_times(tracer.spans), {"outer": (1, 2.0), "inner": (1, 1.0)})


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.reference = load_reference()
        self.expected = self.reference["tables"]["fdm32-dt0.2"]
        self.floor = self.reference["energy_floor"]["fdm"]

    def mismatches(self, payload):
        return table_mismatches(payload, self.expected, rtol=self.reference["rtol"],
                                energy_floor=self.floor)

    def test_accepts_the_reference(self):
        self.assertEqual(self.mismatches(copy.deepcopy(self.expected)), [])

    def test_rejects_perturbed_control_norm(self):
        payload = copy.deepcopy(self.expected)
        payload["rows"][2]["unorm"] *= 1 + 1e-8
        self.assertTrue(any("unorm" in p for p in self.mismatches(payload)))

    def test_rejects_nan(self):
        payload = copy.deepcopy(self.expected)
        payload["rows"][1]["energy"] = math.nan
        self.assertTrue(any("non-finite" in p for p in self.mismatches(payload)))

    def test_energies_below_floor_agree(self):
        payload = copy.deepcopy(self.expected)
        last = payload["rows"][-1]
        self.assertLess(last["energy"], self.floor)
        last["energy"] *= 100.0
        last["energy_rate"] = -1.0
        self.assertEqual(self.mismatches(payload), [])

    def test_rejects_energy_crossing_floor(self):
        payload = copy.deepcopy(self.expected)
        payload["rows"][-1]["energy"] = 10 * self.floor
        self.assertTrue(self.mismatches(payload))


def _originals(points):
    return [(_resolve(module, path) or (None, None, None))[2] for module, path, *_ in points]


class WrapperTest(unittest.TestCase):
    def run_tables(self, out_dir: Path) -> list[bytes]:
        emitted = []
        for table in SMALL_TABLES:
            out = out_dir / f"{table.id}.json"
            self.assertEqual(cli.main(table.argv() + ["--format", "json", "--out", str(out)]), 0)
            emitted.append(out.read_bytes())
        return emitted

    def test_traced_tables_are_bitwise_equal_and_wrappers_removed(self):
        points = WRAP_POINTS + (CG_POINT,)
        before = _originals(points)
        with tempfile.TemporaryDirectory() as tmp:
            untraced = self.run_tables(Path(tmp))
            tracer = Tracer()
            with installed(tracer) as live:
                self.assertIsNot(_originals(points)[0], before[0])
                traced = self.run_tables(Path(tmp))
        self.assertEqual(traced, untraced)
        self.assertTrue({"fdm.run", "fem.run", "spectral.exact", "linalg.cg"} <= live)
        names = {span[0] for span in tracer.spans}
        self.assertTrue({"cli.main", "fdm.ctrl_step", "fem.twin_step",
                         "spectral.exact"} <= names)
        for now, then in zip(_originals(points), before):
            self.assertIs(now, then)

    def test_wrappers_removed_after_an_error(self):
        before = _originals(WRAP_POINTS)
        with self.assertRaises(RuntimeError):
            with installed(Tracer()):
                raise RuntimeError("boom")
        for now, then in zip(_originals(WRAP_POINTS), before):
            self.assertIs(now, then)

    def test_cg_counted_without_changing_the_solution(self):
        A = fdm.build_dn(fdm.FdGrid(n=8, a=math.pi)).tocsc()
        b = np.linspace(1.0, 2.0, A.shape[0])
        plain = SpdFactorization(A, direct_limit=0).solve(b)
        tracer = Tracer()
        with installed(tracer):
            counted = SpdFactorization(A, direct_limit=0).solve(b)
        self.assertTrue(np.array_equal(plain, counted))
        self.assertEqual(tracer.cg_calls, 1)
        self.assertGreater(tracer.cg_iters, 0)

    def test_missing_wrap_point_drops_its_layer(self):
        notice = io.StringIO()
        points = (("platenull.fem", "no_such_entry_point", "fem.gone"),) + WRAP_POINTS[:1]
        with installed(Tracer(), points=points, notice=notice) as live:
            pass
        self.assertNotIn("fem.gone", live)
        self.assertIn("linalg.block_factor", live)
        self.assertIn("no_such_entry_point", notice.getvalue())


class OutsideCheckoutTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "platebench"
            shutil.copytree(HERE.parent, bench, ignore=shutil.ignore_patterns(".out"))
            done = subprocess.run(
                [sys.executable, str(bench / "run.py"), "--workload", "fdm-acceptance",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
