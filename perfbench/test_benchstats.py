"""Self-tests of the benchmark's spread and bound logic (benchstats.py).
Run with `python3 perfbench/run.py --selftest`."""

import unittest

import benchstats

LATENCY = {"name": "plan_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
RATE = {"name": "serve_mreq_s", "unit": "Mreq/s", "better": "higher", "bound": 0.1}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        # statistics.quantiles' default "exclusive" method on 1..9.
        self.assertEqual(benchstats.quartiles(list(range(1, 10))), (2.5, 5.0, 7.5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchstats.spread(list(range(1, 10))), 1.0)
        self.assertEqual(benchstats.spread([2.0] * 10), 0.0)

    def test_wide_metric_fails_and_setup_is_exempt(self):
        steady = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]
        wide = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
        values = {"w": {"plan_p50_ms": steady, "setup_s": wide,
                        "serve_mreq_s": wide}}
        _, failures = benchstats.spread_failures(values, [LATENCY, SETUP, RATE])
        self.assertEqual(len(failures), 1)
        self.assertIn("serve_mreq_s", failures[0])

    def test_missing_samples_fail(self):
        _, failures = benchstats.spread_failures({"w": {}}, [LATENCY])
        self.assertEqual(len(failures), 1)


class BoundTest(unittest.TestCase):
    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(benchstats.worsening(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(benchstats.worsening(100.0, 110.0, "higher"), -0.1)
        self.assertAlmostEqual(benchstats.worsening(-2.0, -1.0, "lower"), 0.5)

    def test_compare_flags_only_regressions_beyond_the_bound(self):
        base = {"w": {"plan_p50_ms": [100.0] * 3, "serve_mreq_s": [50.0] * 3}}
        within = {"w": {"plan_p50_ms": [109.0] * 3, "serve_mreq_s": [46.0] * 3}}
        beyond = {"w": {"plan_p50_ms": [111.0] * 3, "serve_mreq_s": [44.0] * 3}}
        _, failures = benchstats.compare_failures(base, within, [LATENCY, RATE])
        self.assertEqual(failures, [])
        _, failures = benchstats.compare_failures(base, beyond, [LATENCY, RATE])
        self.assertEqual(len(failures), 2)


if __name__ == "__main__":
    unittest.main()
