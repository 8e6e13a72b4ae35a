"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 bench/smoke.py

Runs every workload shape untraced and traced, checks each result line
against BENCHMARK.json, and shows that the output check, the span check and
the wrapper removal reject what they must.  Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import workloads  # noqa: E402
from bdris import precoding  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class ResultLine(unittest.TestCase):

    def test_every_workload_emits_every_declared_metric(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    out = run_bench("--workload", name, "--seed", "3",
                                    "--seconds", "1", "--trace", str(trace), "--tiny")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    lines = out.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines[-2])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m for m in SPEC[kind]}
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for metric, got in result["metrics"].items():
                        self.assertEqual(got["unit"], declared[metric]["unit"])
                        self.assertIn(declared[metric]["better"], ("higher", "lower"))
                        self.assertTrue(math.isfinite(got["value"]))

    def test_exits_nonzero_without_the_library_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".smoke-") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("--workload", "bd-fixed", "--seed", "1",
                            "--seconds", "1", cwd=tmp)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


class OutputCheck(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.inputs = workloads.setup(workloads.tiny(workloads.WORKLOADS["bd-fixed"]), 5)

    def solve(self):
        return workloads.solve_cell(self.inputs, self.inputs.workload.cells()[0])

    def assertRejected(self, problems, text):
        self.assertTrue(any(text in p for p in problems), problems)

    def test_accepts_a_correct_solve(self):
        s = self.solve()
        self.assertEqual(workloads.check_pass([s], [{"sum_rate_bps_hz": s.sum_rate}]), [])

    def test_rejects_a_reported_rate_the_iterate_does_not_give(self):
        s = self.solve()
        s.trace.sum_rates[-1] = s.sum_rate + 1e-9
        self.assertRejected(workloads.check_pass([s]), "reported rate")

    def test_rejects_an_infeasible_iterate(self):
        s = self.solve()
        s.iterate.capacitances[0, 0] = 2 * self.inputs.config.circuit.c_max
        self.assertRejected(workloads.check_pass([s]), "infeasible")

    def test_rejects_a_non_finite_rate(self):
        s = self.solve()
        s.trace.sum_rates.append(float("nan"))
        self.assertRejected(workloads.check_pass([s]), "non-finite")

    def test_rejects_iteration_times_beyond_the_solve_clock(self):
        s = self.solve()
        s.trace.wall_times[-1] += s.wall
        self.assertRejected(workloads.check_pass([s]), "exceed the solve wall")

    def test_rejects_a_sweep_row_that_misreports_the_solver(self):
        s = self.solve()
        rows = [{"sum_rate_bps_hz": s.sum_rate * (1 + 1e-12)}]
        self.assertRejected(workloads.check_pass([s], rows), "sweep reports")

    def test_rejects_a_repeat_that_is_not_bit_identical(self):
        first, again = [self.solve()], [self.solve()]
        self.assertEqual(measure.check(again, None, "repeat", first), [])
        trace = again[0].trace
        trace.sum_rates[0] = math.nextafter(trace.sum_rates[0], 0.0)
        self.assertRejected(measure.check(again, None, "repeat", first),
                            "differs from its first solve")


class Spans(unittest.TestCase):

    def test_all_wrappers_are_removed(self):
        targets = [(o, a) for o, a, _ in measure.LAYERS] + [(precoding, "solve_precoder")]
        before = [getattr(o, a) for o, a in targets]
        tracer = Tracer()
        measure.install_layers(tracer)
        self.assertTrue(all(getattr(o, a) is not f for (o, a), f in zip(targets, before)))
        tracer.remove()
        for (o, a), f in zip(targets, before):
            self.assertIs(getattr(o, a), f)

    def test_traced_run_nests_and_self_times_partition_the_roots(self):
        w = workloads.tiny(workloads.WORKLOADS["bd-fixed"])
        tracer, _, _, _, problems = measure.traced_run(w, 5, seconds=0.1)
        self.assertEqual(problems, [])
        roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
        selfs = [t for ts in tracer.self_times().values() for t in ts]
        self.assertTrue(all(t >= 0 for t in selfs))
        self.assertAlmostEqual(sum(selfs), roots, delta=1e-9 * len(selfs))

    def test_check_rejects_a_child_outside_its_parent(self):
        tracer = Tracer()
        tracer.spans = [["p", 0.0, 1.0, -1], ["c", 0.5, 1.5, 0]]
        self.assertTrue(any("exceeds its parent" in p for p in tracer.check()))

    def test_check_rejects_overlapping_siblings(self):
        tracer = Tracer()
        tracer.spans = [["p", 0.0, 2.0, -1], ["a", 0.1, 1.0, 0], ["b", 0.9, 1.5, 0]]
        self.assertTrue(any("overlaps" in p for p in tracer.check()))


if __name__ == "__main__":
    unittest.main()
