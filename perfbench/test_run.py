"""Tests of the result-line checks in run.py, and of BENCHMARK.json itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = {"throughput_mops": "Mops", "setup_s": "s"}


def line(metrics, **top):
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    result.update(top)
    return json.dumps(result)


def good():
    return {
        "throughput_mops": {"value": 31.25, "unit": "Mops"},
        "setup_s": {"value": 1.3e-05, "unit": "s"},
    }


class CheckResult(unittest.TestCase):
    def test_accepts_every_expected_metric_with_its_unit(self):
        result, problems = run.check_result(line(good()), EXPECTED)
        self.assertEqual(problems, [])
        self.assertEqual(result["metrics"]["setup_s"]["value"], 1.3e-05)

    def test_rejects_a_missing_or_unexpected_metric(self):
        metrics = good()
        del metrics["setup_s"]
        metrics["latency_ms"] = {"value": 1.0, "unit": "ms"}
        _, problems = run.check_result(line(metrics), EXPECTED)
        self.assertEqual(problems, ["missing metric setup_s", "unexpected metric latency_ms"])

    def test_rejects_a_wrong_unit_or_a_non_number(self):
        metrics = good()
        metrics["throughput_mops"]["unit"] = "ops"
        metrics["setup_s"]["value"] = None
        _, problems = run.check_result(line(metrics), EXPECTED)
        self.assertEqual(len(problems), 2)
        self.assertTrue(any("unit 'ops'" in p for p in problems))
        self.assertTrue(any("not a finite number" in p for p in problems))

    def test_rejects_bad_top_level_fields(self):
        self.assertTrue(run.check_result("metric: x = 1", EXPECTED)[1])
        self.assertTrue(run.check_result(line(good(), extra=1), EXPECTED)[1])
        self.assertTrue(run.check_result(line(good(), attempted=0), EXPECTED)[1])
        self.assertTrue(run.check_result(line(good(), failed=1.5), EXPECTED)[1])
        self.assertTrue(run.check_result(line(good(), correct="yes"), EXPECTED)[1])

    def test_expected_metrics_follow_the_mode(self):
        spec = {"end_to_end": [{"name": "a", "unit": "s"}], "per_layer": [{"name": "b", "unit": "ns"}]}
        self.assertEqual(run.expected_metrics(spec, False), {"a": "s"})
        self.assertEqual(run.expected_metrics(spec, True), {"b": "ns"})

    def test_flag_values(self):
        argv = ["--workload", "filter-zipf", "--trace", "1"]
        self.assertEqual(run.flag(argv, "--trace"), "1")
        self.assertIsNone(run.flag(argv, "--seed"))


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_and_units_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))

    def test_end_to_end_bounds_and_setup(self):
        for m in self.spec["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_every_workload_is_known_to_the_benchmark(self):
        with open(os.path.join(ROOT, "perfbench", "src", "main.rs")) as f:
            source = f.read()
        declared = set(re.findall(r'name: "([a-z0-9-]+)"', source))
        self.assertEqual(declared, {w["name"] for w in self.spec["workloads"]})


if __name__ == "__main__":
    unittest.main()
