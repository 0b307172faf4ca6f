"""Tests for the benchmark's digest, failure counting and result output.

Run from the repo root:  python3 -m unittest discover -s perfbench
"""

import copy
import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def sample_result():
    return {
        "total_migrations": 850, "final_active_pms": 109,
        "final_overloaded_pms": 2, "slavo": 0.0020354406130268202,
        "slalm": 1.3651716271638e-05, "slav": 2.7787e-08,
        "total_energy_j": 4.2e9, "migration_energy_j": 1234.5,
        "messages": 100000, "bytes": 5000000, "net_sends": 0,
        "net_delivered": 0, "net_delayed": 0, "net_dropped_loss": 0,
        "net_dropped_congestion": 0, "active_pms": [120, 115, 109],
        "overloaded_pms": [3, 2, 2], "migrations_round": [10, 4, 0],
    }


def perturbations(result):
    """Every single-field change the digest must notice."""
    for field in run.DIGEST_FIELDS:
        changed = copy.deepcopy(result)
        value = changed[field]
        if isinstance(value, list):
            value[-1] += 1
        elif isinstance(value, float):
            changed[field] = math.nextafter(value, math.inf)
        else:
            changed[field] = value + 1
        yield field, changed


class DigestTest(unittest.TestCase):
    def test_equal_results_digest_equal(self):
        self.assertEqual(run.digest(sample_result()),
                         run.digest(copy.deepcopy(sample_result())))

    def test_every_field_changes_the_digest(self):
        base = run.digest(sample_result())
        for field, changed in perturbations(sample_result()):
            with self.subTest(field=field):
                self.assertNotEqual(run.digest(changed), base)

    def test_printed_doubles_round_trip(self):
        # The driver prints doubles with %.17g; parsing them back must give
        # the same digest as the original values.
        result = sample_result()
        printed = "{%s}" % ",".join(
            '"%s":%s' % (k, "%.17g" % v if isinstance(v, float) else json.dumps(v))
            for k, v in result.items())
        self.assertEqual(run.digest(json.loads(printed)), run.digest(result))

    def test_extra_fields_are_ignored_and_missing_fields_rejected(self):
        result = sample_result()
        with_extra = dict(result, final_bfd_bins=7)
        self.assertEqual(run.digest(with_extra), run.digest(result))
        del result["slav"]
        with self.assertRaises(ValueError):
            run.digest(result)


class FailureCountingTest(unittest.TestCase):
    def setUp(self):
        self.good = run.digest(sample_result())

    def test_all_matching_runs_pass(self):
        self.assertEqual(run.count_failures([self.good] * 3, self.good), (3, 0))

    def test_perturbed_result_counts_as_failed(self):
        for field, changed in perturbations(sample_result()):
            with self.subTest(field=field):
                runs = [self.good, run.digest(changed), self.good]
                self.assertEqual(run.count_failures(runs, self.good), (3, 1))

    def test_thrown_run_counts_as_failed(self):
        self.assertEqual(run.count_failures([self.good, None], self.good), (2, 1))

    def test_without_reference_first_run_is_expected(self):
        other = run.digest(next(perturbations(sample_result()))[1])
        self.assertEqual(run.count_failures([self.good, other, self.good], None),
                         (3, 1))
        self.assertEqual(run.count_failures([None, other, other], None), (3, 1))

    def test_reference_mismatch_fails_every_run(self):
        cell = {"algorithm": "glap",
                "runs": [{"traced": False, "digest": self.good},
                         {"traced": True, "digest": self.good}]}
        reference = {"paper-500": {"glap": {"42": "0" * 64}}}
        self.assertEqual(run.check_cells([cell], "paper-500", 42, reference, True), (2, 2))
        reference["paper-500"]["glap"]["42"] = self.good
        self.assertEqual(run.check_cells([cell], "paper-500", 42, reference, True), (2, 0))

    def test_missing_reference_fails_only_when_required(self):
        cell = {"algorithm": "glap",
                "runs": [{"traced": False, "digest": self.good}] * 2}
        self.assertEqual(run.check_cells([cell], "paper-500", 7, {}, False), (2, 0))
        self.assertEqual(run.check_cells([cell], "paper-500", 7, {}, True), (2, 2))

    def test_committed_reference_covers_default_seed(self):
        reference = run.load_reference()
        for workload, cells in run.WORKLOADS.items():
            for cell in cells:
                with self.subTest(workload=workload, algorithm=cell["algorithm"]):
                    self.assertIsNotNone(run.reference_digest(
                        reference, workload, cell["algorithm"], run.DEFAULT_SEED))


def synthetic_cell(algorithm, run_s, setup_s, rounds=1420, peak=100.0):
    return {
        "algorithm": algorithm,
        "cold_setup_s": [setup_s * 2], "warm_setup_s": list(setup_s for _ in range(3)),
        "setup_rss_mib": peak / 2, "peak_rss_mib": peak,
        "runs": [{"traced": False, "seconds": s, "rounds": rounds,
                  "pm_count": 500, "digest": "d"} for s in run_s],
    }


class MetricOutputTest(unittest.TestCase):
    def test_result_line_shape(self):
        values = {"rounds_per_s": 270.5, "setup_s": 0.035, "peak_rss_mib": 60.8}
        line = json.loads(run.result_line(True, 3, 0, values, run.END_TO_END))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        self.assertEqual((line["attempted"], line["failed"]), (3, 0))
        self.assertEqual(line["metrics"]["setup_s"], {"value": 0.035, "unit": "s"})
        self.assertEqual(set(line["metrics"]), set(run.END_TO_END))

    def test_end_to_end_arithmetic(self):
        cells = [synthetic_cell("grmp", [1.0, 1.2, 1.1], 0.1, peak=10.0),
                 synthetic_cell("pabfd", [3.0, 3.0, 3.0], 1.0, peak=2600.0)]
        m = run.end_to_end_metrics(cells)
        # stepping: (1.1 - 0.1) + (3.0 - 1.0) = 3.0 s for 2840 rounds
        self.assertAlmostEqual(m["rounds_per_s"], 2840 / 3.0)
        self.assertAlmostEqual(m["setup_s"], 1.1)
        self.assertEqual(m["peak_rss_mib"], 2600.0)

    def test_end_to_end_needs_a_good_run_per_cell(self):
        cell = synthetic_cell("glap", [5.0], 0.04)
        cell["runs"][0]["digest"] = None
        self.assertIsNone(run.end_to_end_metrics([cell]))

    def test_per_layer_fills_every_metric(self):
        cell = synthetic_cell("glap", [5.0], 0.04)
        traced = dict(cell["runs"][0], traced=True, seconds=5.2,
                      mean_quiescent_pms=50.0,
                      profile={"commit": {"calls": 1420, "wall_ns": 10**8},
                               "execute.learning": {"calls": 9, "wall_ns": 3 * 10**9}},
                      counters={name: 1 for name in (
                          "learning.train_cycles", "learning.merges",
                          "consolidation.exchanges", "consolidation.pi_in_rejects",
                          "consolidation.capacity_rejects", "cyclon.shuffles",
                          "dc.migrations", "dc.power_transitions", "netmodel.sends",
                          "netmodel.delivered", "netmodel.delayed",
                          "netmodel.dropped_loss", "netmodel.dropped_congestion")})
        cell["runs"].append(traced)
        layers = dict({name: 100.0 for name in run.LAYER_SPANS},
                      **{"core.pair_bytes": 106640.0})
        probes = {b: {"setup_s": 0.5, "peak_rss_mib": 9.0} for b in run.BASELINES}
        m = run.per_layer_metrics([cell], layers, probes, 0)
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertAlmostEqual(m["core.learning.pct"], 100 * 3.0 / (5.2 - 0.04))
        self.assertAlmostEqual(m["sim.parked_fraction"], 0.1)
        self.assertAlmostEqual(m["trace_overhead_ratio"], (5.0 - 0.04) / (5.2 - 0.04))
        self.assertEqual(m["qlearn.update_ns"], 100.0)
        self.assertEqual(m["baselines.pabfd.setup_s"], 0.5)
        line = json.loads(run.result_line(True, 2, 0, m, run.PER_LAYER))
        self.assertEqual(set(line["metrics"]), set(run.PER_LAYER))


class FingerprintTest(unittest.TestCase):
    def test_warns_only_on_different_hosts(self):
        a = {"fingerprint": {"cpu_model": "A", "hardware_threads": 4}}
        b = {"fingerprint": {"cpu_model": "B", "hardware_threads": 4}}
        self.assertEqual(run.fingerprint_warnings([a], [copy.deepcopy(a)]), [])
        self.assertTrue(run.fingerprint_warnings([a], [b])[0].startswith("WARNING"))


if __name__ == "__main__":
    unittest.main()
