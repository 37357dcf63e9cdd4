"""Tests of the benchmark's own arithmetic and tracer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from stats import (  # noqa: E402
    failed_frac,
    fastest,
    geomean,
    median,
    pass_estimate,
    pass_seconds,
    per_item,
    quartiles,
    relative_spread,
    tail_percentile,
)
from tracer import Tracer, TraceError, check_required, self_times  # noqa: E402


class TestStats(unittest.TestCase):
    def test_median_skips_missing(self):
        self.assertEqual(median([3.0, None, 1.0, 2.0]), 2.0)
        self.assertIsNone(median([None, None]))
        self.assertIsNone(median([]))

    def test_quartiles_match_statistics(self):
        vals = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(quartiles(vals), tuple(statistics.quantiles(vals, n=4)))
        self.assertEqual(quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertIsNone(quartiles([None]))

    def test_relative_spread(self):
        vals = [float(v) for v in range(1, 11)]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(relative_spread(vals), (q3 - q1) / q2)
        self.assertEqual(relative_spread([4.0, 4.0, 4.0]), 0.0)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile([1.0] * 10))
        vals = [float(v) for v in range(1, 101)]
        p, v = tail_percentile(vals)
        self.assertEqual((p, v), (90, 90.0))
        self.assertEqual(sum(x > v for x in vals), 10)
        p, v = tail_percentile([float(v) for v in range(1, 12)])
        self.assertEqual((p, v), (9, 1.0))
        for n in (11, 20, 37, 64):
            vals = [float(v) for v in range(n)]
            p, v = tail_percentile(vals)
            self.assertGreaterEqual(sum(x > v for x in vals), 10)

    def test_geomean(self):
        self.assertAlmostEqual(geomean([1.0, 4.0, 16.0]), 4.0)
        self.assertAlmostEqual(geomean([0.5, 30.0]), math.sqrt(15.0))
        self.assertIsNone(geomean([1.0, None]))
        self.assertIsNone(geomean([]))
        with self.assertRaises(ValueError):
            geomean([1.0, 0.0])

    def test_fastest_is_missing_if_a_pass_failed(self):
        self.assertEqual(fastest([0.3, 0.1, 0.2]), 0.1)
        self.assertIsNone(fastest([0.3, None, 0.1]))
        self.assertIsNone(fastest([]))

    def test_failed_frac(self):
        self.assertEqual(failed_frac(0, 12), 0.0)
        self.assertEqual(failed_frac(3, 12), 0.25)
        with self.assertRaises(ValueError):
            failed_frac(0, 0)
        with self.assertRaises(ValueError):
            failed_frac(5, 4)


def row(item, seconds):
    return {"item": item, "ok": seconds is not None, "seconds": seconds}


class TestPasses(unittest.TestCase):
    def test_failed_item_makes_the_pass_missing_not_fast(self):
        self.assertAlmostEqual(pass_seconds([row("a", 1.0), row("b", 2.5)]), 3.5)
        self.assertIsNone(pass_seconds([row("a", 1.0), row("b", None)]))
        self.assertIsNone(pass_seconds([]))

    def test_per_item_median_over_passes(self):
        passes = [[row("a", 1.0), row("b", 4.0)],
                  [row("b", 6.0), row("a", 3.0)],
                  [row("a", 2.0), row("b", None)]]
        self.assertEqual(per_item(passes), {"a": 2.0, "b": 5.0})

    def test_pass_estimate_sums_per_item_stats_over_partial_passes(self):
        passes = [[row("a", 1.0), row("b", 4.0)],
                  [row("b", 6.0), row("a", 3.0)],
                  [row("a", 2.0)]]
        self.assertAlmostEqual(pass_estimate(passes), 2.0 + 5.0)
        self.assertAlmostEqual(pass_estimate(passes, fastest), 1.0 + 4.0)
        self.assertIsNone(pass_estimate(passes + [[row("b", None)]]))
        self.assertIsNone(pass_estimate([]))


class TestSelfTimes(unittest.TestCase):
    def test_children_are_subtracted_within_the_parent_interval(self):
        spans = [
            [0, None, "i", "cli", "cli.main", 0.0, 10.0, None],
            [1, 0, "i", "model", "cli.build_model", 1.0, 3.0, None],
            [2, 0, "i", "solver", "cli.iterate_bounds", 3.0, 9.0, None],
            [3, 2, "i", "encoder", "solver.encode", 3.0, 4.0, None],
            [4, 2, "i", "solver", "solver.run_solver", 4.0, 8.5, None],
            # replayed after the item: outside its parent's interval
            [5, 4, "i", "smtlite", "smtlite.replay", 20.0, 23.0, None],
        ]
        got = self_times(spans)
        self.assertAlmostEqual(got["cli"], 2.0)
        self.assertAlmostEqual(got["model"], 2.0)
        self.assertAlmostEqual(got["encoder"], 1.0)
        self.assertAlmostEqual(got["solver"], 0.5 + 4.5)
        self.assertAlmostEqual(got["smtlite"], 3.0)
        self.assertAlmostEqual(sum(got.values()), 10.0 + 3.0)


class TestTracerFailsLoudly(unittest.TestCase):
    def test_missing_wrapped_function_raises_and_restores(self):
        import tspbmc.cli as cli
        import tspbmc.solver as solver
        original_decode, original_run = cli.decode, solver.run_solver
        del cli.decode
        try:
            with self.assertRaisesRegex(TraceError, "tspbmc.cli.decode"):
                Tracer().install()
        finally:
            cli.decode = original_decode
        self.assertIs(solver.run_solver, original_run)

    def test_install_wraps_and_uninstall_restores(self):
        import tspbmc.cli as cli
        before = dict(cli._RENDERERS), cli.build_model
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.build_model, before[1])
            self.assertIsNot(cli._RENDERERS["json"], before[0]["json"])
        finally:
            tracer.uninstall()
        self.assertEqual((dict(cli._RENDERERS), cli.build_model), before)

    def test_a_layer_without_spans_is_an_error(self):
        tracer = Tracer()
        tracer.item = "check:x"
        for name in ("cli.parse_protocol", "cli.parse_scenario", "cli.build_model",
                     "cli.iterate_bounds", "solver.encode"):
            with tracer.span("any", name):
                pass
        with self.assertRaisesRegex(TraceError, "solver.run_solver"):
            check_required(tracer, "check:x", "check", attack=False)
        with tracer.span("solver", "solver.run_solver"):
            pass
        check_required(tracer, "check:x", "check", attack=False)
        with self.assertRaisesRegex(TraceError, "cli.decode"):
            check_required(tracer, "check:x", "check", attack=True)


if __name__ == "__main__":
    unittest.main()
