#!/usr/bin/env python3
"""Tests for the benchmark's own statistics, result and manifest shapes.

    python3 perfbench/test_stats.py

Needs no build: everything is checked on synthetic raw reports.
"""

import argparse
import json
import re
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def raw_report(workload="oneshot_udg", **over):
    """A minimal raw report as ftc_perfbench prints it."""
    raw = {
        "workload": workload,
        "n": 1000,
        "threads": 4,
        "trace": False,
        "build_type": "Release",
        "compiler": "GNU 12.2.0",
        "cxx_flags": "-O3 -DNDEBUG",
        "attempted": 12,
        "failed": 0,
        "errors": [],
        "values": {"chunk_work": 3000.0, "set_per_node": 1.5,
                   "peak_rss_kb": 2048.0},
        "series": {"setup_s": [0.3, 0.1, 0.2], "op_s": [0.5, 0.25, 1.0, 0.5],
                   "chunk_s": [0.5, 0.25, 1.0, 0.5],
                   "sweep_s": [0.05, 0.025, 0.2, 0.05]},
        "spans": {},
    }
    raw.update(over)
    return raw


class Quantiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_relative_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / q2)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 99.9), 100)


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.beyond(1000, 99.0), 10)

    def test_falls_back_to_the_highest_valid_percentile(self):
        # 999 samples leave only 9 beyond p99, so p95 is named instead.
        p, value = stats.tail(list(range(999)))
        self.assertEqual(p, 95.0)
        self.assertEqual(value, stats.percentile(list(range(999)), 95.0))
        # 100 samples: p90 has exactly 10 beyond it.
        self.assertEqual(stats.tail(list(range(100)))[0], 90.0)

    def test_no_tail_from_too_few_samples(self):
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(20)))[0], 50.0)

    def test_never_above_p99(self):
        self.assertEqual(stats.tail(list(range(100000)))[0], 99.0)


class Rates(unittest.TestCase):
    def test_rate_is_fixed_work_per_sweep_time(self):
        # 100 units of work in 2 s, next to a 0.5 s sweep: 25 per sweep.
        self.assertEqual(stats.sweep_relative_rate(100, [2.0], [0.5]), 25.0)

    def test_rate_is_the_median_over_chunks(self):
        self.assertEqual(
            stats.sweep_relative_rate(100, [1.0, 1.0, 1.0], [0.1, 0.2, 0.9]),
            20.0)

    def test_a_host_slowdown_seen_by_the_sweep_cancels(self):
        quiet = stats.sweep_relative_rate(100, [1.0] * 4, [0.1] * 4)
        slow = stats.sweep_relative_rate(100, [2.0] * 4, [0.2] * 4)
        self.assertEqual(quiet, slow)

    def test_rate_does_not_depend_on_how_many_chunks_ran(self):
        self.assertEqual(
            stats.sweep_relative_rate(100, [1.0, 2.0] * 10, [0.1] * 20),
            stats.sweep_relative_rate(100, [1.0, 2.0] * 40, [0.1] * 80))

    def test_rate_needs_work_and_one_sweep_per_chunk(self):
        with self.assertRaises(ValueError):
            stats.sweep_relative_rate(0, [1.0], [0.1])
        with self.assertRaises(ValueError):
            stats.sweep_relative_rate(1, [], [])
        with self.assertRaises(ValueError):
            stats.sweep_relative_rate(1, [1.0, 1.0], [0.1])

    def test_end_to_end_values(self):
        for workload in stats.WORKLOADS:
            e2e = stats.end_to_end(raw_report(workload))
            # Per-chunk work per sweep: 300, 300, 600, 300 -> median 300.
            self.assertEqual(e2e["work_per_sweep"], 300.0)
            self.assertEqual(e2e["setup_s"], 0.2)
            self.assertEqual(e2e["peak_rss_mb"], 2.0)
            self.assertEqual(e2e["set_per_node"], 1.5)


class Shapes(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(stats.WORKLOADS))

    def test_untraced_result_reports_every_end_to_end_metric(self):
        for workload in stats.WORKLOADS:
            res = stats.result(raw_report(workload), False, UNITS)
            self.assertEqual(list(res),
                             ["correct", "attempted", "failed", "metrics"])
            self.assertEqual(set(res["metrics"]),
                             {m["name"] for m in SPEC["end_to_end"]})
            for name, metric in res["metrics"].items():
                self.assertEqual(set(metric), {"value", "unit"})
                self.assertGreater(metric["value"], 0, name)

    def test_traced_result_reports_every_per_layer_metric(self):
        spans = {"op": {"self_s": 0.01, "total_s": 1.0, "calls": 4},
                 "algo.lp.solve": {"self_s": 0.6, "total_s": 0.6, "calls": 2}}
        series = dict(raw_report()["series"], **{"traced.op_s": [0.55, 0.55]})
        raw = raw_report(spans=spans, series=series)
        res = stats.result(raw, True, UNITS)
        self.assertEqual(set(res["metrics"]),
                         {m["name"] for m in SPEC["per_layer"]})
        got = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertAlmostEqual(got["oneshot_udg.attributed_share"], 0.99)
        self.assertAlmostEqual(got["oneshot_udg.trace_overhead"], 0.1)
        self.assertEqual(got["churn_udg.attributed_share"], 0.0)
        self.assertEqual(got["algo.lp.solve_s"], 0.3)
        self.assertEqual(got["algo.udg.solve_s"], 0.0)
        self.assertEqual(got["op_p50_ms"], 500.0)
        # Four untraced ops are too few for any tail percentile.
        self.assertEqual((got["op_tail_pct"], got["op_tail_ms"]), (0.0, 0.0))

    def test_traced_tail_names_the_highest_valid_percentile(self):
        series = dict(raw_report()["series"],
                      **{"op_s": [0.001 * i for i in range(1, 201)],
                         "traced.op_s": [0.1]})
        got = stats.per_layer(raw_report(series=series))
        self.assertEqual(got["op_tail_pct"], 95.0)
        self.assertAlmostEqual(got["op_tail_ms"], 190.0)

    def test_failed_ops_make_the_result_incorrect(self):
        res = stats.result(raw_report(failed=1, errors=["x"]), False, UNITS)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertTrue(stats.result(raw_report(), False, UNITS)["correct"])

    def test_result_is_one_json_line(self):
        line = json.dumps(stats.result(raw_report(), False, UNITS))
        self.assertNotIn("\n", line)
        self.assertEqual(json.loads(line)["attempted"], 12)

    def test_manifest_shape(self):
        args = argparse.Namespace(workload="churn_udg", seed=7, seconds=5,
                                  trace=0)
        m = run.manifest(args, raw_report())
        for key in ("git_sha", "build_type", "compiler", "cxx_flags",
                    "cpu_model", "nproc", "engine_width", "seed", "argv"):
            self.assertIn(key, m)
        self.assertEqual(m["record"], "manifest")
        self.assertEqual(m["seed"], 7)
        self.assertEqual(m["engine_width"], 4)
        self.assertTrue(re.fullmatch(r"[0-9a-f]{40}|unknown", m["git_sha"]))


if __name__ == "__main__":
    unittest.main()
