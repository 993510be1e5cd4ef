"""Self-tests for the benchmark's own statistics.

    python3 -m unittest discover -s perfbench/tests -v

The digest test drives the built driver (python3 perfbench/run.py builds
it) and is skipped when it has not been built yet.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        value, pct, n = stats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(1 for v in values if v > value),
                         stats.TAIL_BEYOND)

    def test_smallest_sample_that_supports_a_tail(self):
        value, pct, n = stats.tail([5.0] + [9.0] * 10)
        self.assertEqual((value, n), (5.0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples(self):
        value, pct, n = stats.tail([3.0, 1.0, 2.0])
        self.assertEqual((value, pct, n), (3.0, None, 3))

    def test_percentile_rises_with_samples(self):
        pcts = [stats.tail(list(range(n)))[1] for n in (20, 100, 1000)]
        self.assertEqual(pcts, [50.0, 90.0, 99.0])

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 9.5, 11.0, 30.0, 10.5, 10.2, 9.9, 10.8, 11.5]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_known_value(self):
        # Exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5.
        self.assertAlmostEqual(stats.quartile_spread(range(1, 11)), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([4.0] * 10), 0.0)

    def test_rejects_degenerate_input(self):
        with self.assertRaises(ValueError):
            stats.quartile_spread([1.0])
        with self.assertRaises(ValueError):
            stats.quartile_spread([0.0, 0.0, 0.0])


class FailedFracTest(unittest.TestCase):
    def test_arithmetic(self):
        self.assertEqual(stats.failed_frac(5, 0), 0.0)
        self.assertEqual(stats.failed_frac(8, 2), 0.25)
        self.assertEqual(stats.failed_frac(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (4, 5), (4, -1)):
            with self.assertRaises(ValueError):
                stats.failed_frac(attempted, failed)

    def test_ok_ops_frac_is_its_complement(self):
        raw = {"setup_s": [0.2, 0.1, 0.3],
               "rounds": {"fastest_s": [1.0], "fastest_ops": [20],
                          "leanest_cpu_s": [2.0], "leanest_ops": [20]},
               "peak_rss_mb": 12.0, "attempted": 60, "failed": 6,
               "toc_vs_exact": 1.1, "toc_objective": 0.02,
               "best_ms": {k: [1.0, 2.0] for k in run.KINDS},
               "ops": {k: 3 for k in run.KINDS}}
        metrics, _ = run.end_to_end(raw)
        self.assertAlmostEqual(metrics["ok_ops_frac"][0], 0.9)
        self.assertEqual(metrics["setup_s"][0], 0.1)
        self.assertEqual(metrics["ops_per_s"][0], 20.0)
        self.assertEqual(metrics["cpu_ms_per_op"][0], 100.0)
        self.assertEqual(metrics["exact_ms_p50"][0], 1.5)


class RoundRatesTest(unittest.TestCase):
    def test_rates_over_the_slots_bests(self):
        rounds = {"fastest_s": [0.5, 2.0], "fastest_ops": [10, 20],
                  "leanest_cpu_s": [1.0, 1.0], "leanest_ops": [10, 20]}
        ops_per_s, cpu_ms_per_op = stats.round_rates(rounds)
        # 30 ops in 2.5 s; 2 CPU s for 30 ops.
        self.assertAlmostEqual(ops_per_s, 12.0)
        self.assertAlmostEqual(cpu_ms_per_op, 2000.0 / 30)

    def test_rejects_bad_rounds(self):
        good = {"fastest_s": [1.0], "fastest_ops": [1],
                "leanest_cpu_s": [1.0], "leanest_ops": [1]}
        for key, value in (("leanest_cpu_s", []), ("fastest_ops", [0]),
                           ("fastest_s", [0.0]), ("leanest_ops", [0])):
            with self.assertRaises(ValueError):
                stats.round_rates(dict(good, **{key: value}))
        with self.assertRaises(ValueError):
            stats.round_rates({k: [] for k in good})


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "name": "op", "start_us": 0, "end_us": 1000,
             "parent": -1, "op": 0},
            {"id": 1, "name": "solve", "start_us": 100, "end_us": 600,
             "parent": 0, "op": 0},
            {"id": 2, "name": "probe", "start_us": 600, "end_us": 900,
             "parent": 0, "op": 0},
            {"id": 3, "name": "probe", "start_us": 650, "end_us": 700,
             "parent": 2, "op": 0},
        ]
        out = stats.self_times(spans)
        self.assertEqual(out["op"], (1, 1.0, 0.2))
        self.assertEqual(out["solve"], (1, 0.5, 0.5))
        count, total, self_ms = out["probe"]
        self.assertEqual(count, 2)
        self.assertAlmostEqual(total, 0.35)
        self.assertAlmostEqual(self_ms, 0.3)


class LayerMetricsTest(unittest.TestCase):
    def test_every_per_layer_metric_is_reported(self):
        with open(os.path.join(os.path.dirname(run.HERE),
                               "BENCHMARK.json")) as f:
            names = {m["name"] for m in json.load(f)["per_layer"]}
        reported = set(stats.layer_metrics({}))
        self.assertEqual(names - reported,
                         {"trace.overhead_ops_per_s_frac",
                          "trace.overhead_p50_frac"})
        self.assertFalse(reported - names)

    def test_aggregation_rules(self):
        m = stats.layer_metrics({
            "dot.targets_ms": [1.0, 9.0, 2.0],
            "dot.leaves": [10.0, 20.0, 60.0],
            "exact.nodes": [100.0, 300.0],
            "exact.solve_ms": [1000.0, 1000.0],
            "exact.cache_hits": [3.0, 5.0],
            "exact.cache_misses": [1.0, 1.0],
            "advisor.replanned": [0.0, 1.0, 1.0, 0.0, 1.0],
            "advisor.migrated": [0.0, 1.0, 0.0, 0.0, 0.0],
            "advisor.layouts_evaluated": [0.0, 40.0, 20.0, 0.0, 30.0],
            "advisor.detection_lag": [0.0, 3.0],
        })
        self.assertEqual(m["dot.targets_ms"], (2.0, "ms"))
        self.assertEqual(m["dot.leaves"], (30.0, "count"))
        self.assertEqual(m["dot.nodes_per_s"], (200.0, "1/s"))
        self.assertEqual(m["dot.leaves_per_s"], (45.0, "1/s"))
        self.assertEqual(m["workload.plan_cache_hit_ratio"], (0.8, "ratio"))
        self.assertEqual(m["workload.plan_cache_misses_per_op"][0], 1.0)
        self.assertEqual(m["advisor.replans"][0], 3.0)
        self.assertAlmostEqual(m["advisor.migrations_per_replan"][0], 1 / 3)
        self.assertEqual(m["advisor.layouts_per_replan"][0], 30.0)
        self.assertEqual(m["advisor.detection_lag_windows"][0], 1.5)
        self.assertEqual(m["query.plan_us"], (0.0, "us"))


@unittest.skipUnless(os.path.exists(run.DRIVER), "driver not built")
class DigestTest(unittest.TestCase):
    def drive(self, seed):
        proc = subprocess.run(
            [run.DRIVER, "--workload", "tpcc-oltp", "--seed", str(seed),
             "--seconds", "0.5", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=120, check=True)
        return json.loads(proc.stdout)

    def test_digest_is_stable_and_seeded(self):
        a, b, c = self.drive(7), self.drive(7), self.drive(8)
        self.assertEqual(a["failed"], 0)
        self.assertTrue(stats.digests_agree(
            [a["result_digest"], b["result_digest"]]))
        self.assertFalse(stats.digests_agree(
            [a["result_digest"], c["result_digest"]]))


if __name__ == "__main__":
    unittest.main()
