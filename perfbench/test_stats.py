"""Tests of the benchmark's statistics helpers and of the metric lists.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import statistics
import unittest
from pathlib import Path

import run
import stats


class TailTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, percentile, n = stats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(percentile, 90.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_twenty_five_slots_give_the_sixtieth_percentile(self):
        value, percentile, n = stats.tail([float(i) for i in range(25)])
        self.assertEqual((value, percentile, n), (14.0, 60.0, 25))

    def test_smallest_sample_count(self):
        value, percentile, n = stats.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(percentile, 100.0 / 11)

    def test_too_few_samples_raise(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))
        with self.assertRaises(ValueError):
            stats.tail([])


class MedianQuartileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_the_statistics_module(self):
        values = [0.9, 1.3, 1.1, 2.5, 1.0, 1.2, 0.8, 1.4, 1.05, 1.15]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))
        self.assertEqual(q2, statistics.median(values))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_relative_iqr(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_iqr(values), (q3 - q1) / q2)
        self.assertEqual(stats.relative_iqr([4.0, 4.0, 4.0]), 0.0)

    def test_relative_iqr_of_zero_median_is_finite(self):
        self.assertEqual(stats.relative_iqr([-1.0, 0.0, 1.0]), 0.0)


class SafeRatioTest(unittest.TestCase):
    def test_plain_ratio(self):
        self.assertEqual(stats.safe_ratio(3, 4), 0.75)

    def test_zero_denominator_gives_zero(self):
        self.assertEqual(stats.safe_ratio(1, 0), 0.0)
        self.assertEqual(stats.safe_ratio(0, 0), 0.0)

    def test_non_finite_operands_give_zero(self):
        self.assertEqual(stats.safe_ratio(math.inf, 2.0), 0.0)
        self.assertEqual(stats.safe_ratio(math.nan, 2.0), 0.0)
        self.assertEqual(stats.safe_ratio(1e308, 1e-308), 0.0)

    def test_finite(self):
        self.assertEqual(stats.finite(2.5), 2.5)
        self.assertEqual(stats.finite(math.nan), 0.0)
        self.assertEqual(stats.finite(-math.inf), 0.0)

    def test_ratios_serialize_as_strict_json(self):
        ratios = [stats.safe_ratio(a, b) for a, b in
                  [(1, 0), (math.nan, 1), (math.inf, 1), (2, 3)]]
        json.dumps(ratios, allow_nan=False)  # raises on inf or NaN


class MetricListTest(unittest.TestCase):
    """run.py and BENCHMARK.json name the same metrics with the same units."""

    def setUp(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        self.spec = json.loads(path.read_text())

    def test_end_to_end(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
