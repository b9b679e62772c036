"""Unit checks of perfbench/run.py: BENCHMARK.json is the one list of
metric names and units, and layers.json must explain exactly that list.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

SPEC = {
    "end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "latency_ms_p50", "unit": "ms"}],
    "per_layer": [{"name": "a.x_s", "unit": "s"}, {"name": "b.count", "unit": "count"}],
}


class AttachUnits(unittest.TestCase):
    def test_units_come_from_the_spec(self):
        metrics, lines = run.attach_units(SPEC, 0, {
            "setup_s": {"value": 1.5, "samples": 5},
            "latency_ms_p50": {"value": 2.0, "samples": 40}})
        self.assertEqual(metrics, {"setup_s": {"value": 1.5, "unit": "s"},
                                   "latency_ms_p50": {"value": 2.0, "unit": "ms"}})
        self.assertEqual(lines[1], ("latency_ms_p50", 2.0, "ms", 40))

    def test_unknown_name_is_refused(self):
        with self.assertRaises(ValueError):
            run.attach_units(SPEC, 0, {"setup_s": {"value": 1, "samples": 1},
                                       "latency_ms_p50": {"value": 1, "samples": 1},
                                       "typo_ms": {"value": 1, "samples": 1}})

    def test_missing_end_to_end_metric_is_refused(self):
        with self.assertRaises(ValueError):
            run.attach_units(SPEC, 0, {"setup_s": {"value": 1, "samples": 1}})

    def test_untouched_layer_reads_zero(self):
        metrics, _ = run.attach_units(SPEC, 1, {"a.x_s": {"value": 0.25, "samples": 3}})
        self.assertEqual(metrics["b.count"], {"value": 0, "unit": "count"})


class LoadSpec(unittest.TestCase):
    def test_layers_json_explains_benchmark_json(self):
        spec = run.load_spec()
        self.assertTrue(any(m["name"] == "setup_s" for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
