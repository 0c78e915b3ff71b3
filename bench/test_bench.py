"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import OUT  # noqa: E402


class GeneratedInputs(unittest.TestCase):
    def setUp(self):
        OUT.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-")
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_same_seed_same_cohort(self):
        a, b, c = (self.tmp / name for name in ("a.csv", "b.csv", "c.csv"))
        workloads.write_cohort(a, 7)
        workloads.write_cohort(b, 7)
        workloads.write_cohort(c, 8)
        self.assertEqual(a.read_bytes(), b.read_bytes())
        self.assertNotEqual(a.read_bytes(), c.read_bytes())

    def test_same_seed_same_grid(self):
        for w in (workloads.GRID_SMALL, workloads.SIM_LARGE):
            self.assertEqual(w.grid_text(7), w.grid_text(7))
            self.assertNotEqual(w.grid_text(7), w.grid_text(8))

    def test_cohort_shape(self):
        path = self.tmp / "cohort.csv"
        times, statuses, groups = workloads.write_cohort(path, 3)
        self.assertEqual(times.size, workloads.COHORT_ROWS)
        self.assertTrue(0.15 < (statuses == 0).mean() < 0.21)
        failed_days = set(times[(statuses > 0) & (times <= workloads.TEST_TIME)].tolist())
        self.assertEqual(failed_days, set(range(1, workloads.TEST_TIME + 1)))
        self.assertEqual(set(groups.tolist()), {"A", "B"})


class LoopOracle(unittest.TestCase):
    def test_fixture_a(self):
        # times 1..5 with statuses (1, 0, 1, 2, 0): cause-1 incidence is
        # 0.2 at t=1 and 7/15 from t=3 on, worked by hand.
        times, statuses = [1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 2, 0]
        got = checks.loop_cif(times, statuses, 1, [0.5, 1.0, 2.0, 3.0, 10.0])
        self.assertEqual(got[0], 0.0)
        self.assertAlmostEqual(got[1], 0.2, places=15)
        self.assertAlmostEqual(got[2], 0.2, places=15)
        self.assertAlmostEqual(got[3], 7.0 / 15.0, places=15)
        self.assertAlmostEqual(got[4], 7.0 / 15.0, places=15)

    def test_order_does_not_matter(self):
        times, statuses = [3.0, 1.0, 5.0, 2.0, 4.0], [1, 1, 0, 0, 2]
        self.assertEqual(checks.loop_cif(times, statuses, 1, [4.0]),
                         checks.loop_cif(sorted(times), [1, 0, 1, 2, 0], 1, [4.0]))


class Wrapper(unittest.TestCase):
    def test_return_value_unchanged(self):
        tracer = tracing.Tracer()
        marker = object()
        wrapped = tracer.wrap("layer.f", lambda x, *, y: (x, y, marker))
        self.assertEqual(wrapped(1, y=2), (1, 2, marker))
        self.assertIs(wrapped(1, y=2)[2], marker)
        self.assertEqual([s[0] for s in tracer.spans], ["layer.f", "layer.f"])
        self.assertTrue(all(s[4] is None for s in tracer.spans))

    def test_exception_unchanged(self):
        tracer = tracing.Tracer()
        error = KeyError("boom")

        def raises():
            raise error

        with self.assertRaises(KeyError) as caught:
            tracer.wrap("layer.g", raises)()
        self.assertIs(caught.exception, error)
        self.assertEqual(tracer.spans[0][4], "KeyError")
        self.assertEqual(tracer._stack, [])

    def test_nested_spans_give_self_time(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())
        outer()
        stats = tracing.summarize(tracer.spans)
        self.assertEqual(tracer.spans[1][3], 0)
        self.assertEqual(stats["outer"]["calls"], 1)
        self.assertAlmostEqual(stats["outer"]["self_s"] + stats["inner"]["busy_s"],
                               stats["outer"]["busy_s"], places=12)

    def test_installed_restores_and_reports_absent(self):
        module = types.ModuleType("bench_fake_module")
        original = lambda: 3  # noqa: E731
        module.present = original
        sys.modules[module.__name__] = module
        try:
            layers = (("fake.layer", [(module.__name__, "present"), (module.__name__, "gone"),
                                      ("bench_no_such_module", "f")], False, (), None),)
            tracer = tracing.Tracer()
            with tracing.installed(tracer, layers) as absent:
                self.assertIsNot(module.present, original)
                self.assertEqual(module.present(), 3)
            self.assertIs(module.present, original)
            self.assertEqual(absent, [f"{module.__name__}.gone", "bench_no_such_module.f"])
            self.assertEqual(tracing.summarize(tracer.spans)["fake.layer"]["calls"], 1)
        finally:
            del sys.modules[module.__name__]


class Spec(unittest.TestCase):
    def test_benchmark_json_lists_every_traced_metric(self):
        with open(BENCH.parent / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, tracing.per_layer_spec())


class Statistics(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(set(workloads.summary([1.0] * 9)), {"median", "count"})
        self.assertIn("p50", workloads.summary(list(range(20))))
        self.assertNotIn("p90", workloads.summary(list(range(20))))
        self.assertEqual(workloads.summary(list(range(1, 101)))["p90"], 90)


if __name__ == "__main__":
    unittest.main()
