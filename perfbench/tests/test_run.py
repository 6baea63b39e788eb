"""Tests of the benchmark runner's own logic.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (the runner lives one directory up)

PASS = run.PASS_LINES["table1"].encode()


def event(index, ok=True, wall_us=None):
    line = f'{{"index":{index},"kernel":"fac","cycles":{1000 + index},"ok":{str(ok).lower()}'
    if wall_us is not None:
        line += f',"wall_us":{wall_us}'
    return (line + "}").encode()


def table1_rep(events, stdout=b"TABLE I\n" + PASS + b"\n", code=0):
    return {
        "outputs": {"table1.events": events, "table1.stdout": stdout, "table1.json": b"{}"},
        "exit": {"table1": code},
    }


class PercentileTests(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        values = list(range(1, 201))
        self.assertEqual(run.percentile(values, 95), 190)
        self.assertIsNone(run.percentile(values[:199], 95))
        self.assertEqual(run.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(run.percentile(list(range(1, 20)), 50))

    def test_campaign_metrics_state_the_sample_count(self):
        m = run.campaign_metrics([2.0] * 300, 1.0)
        self.assertEqual(m["campaign.cells"], 300)
        self.assertEqual(m["campaign.cell_p95_ms"], 2.0)
        self.assertAlmostEqual(m["campaign.idle_share"], 1.0 - 0.6 / run.JOBS)

    def test_too_few_cells_for_a_p95_fail_the_run(self):
        with self.assertRaises(run.BenchError):
            run.campaign_metrics([1.0] * 100, 1.0)


class ReferenceTests(unittest.TestCase):
    def setUp(self):
        self.rep = table1_rep([event(i) for i in range(5)])
        self.reference = run.manifest(self.rep["outputs"])

    def test_identical_outputs_pass(self):
        self.assertEqual(run.check(self.rep, self.reference), (7, 0))

    def test_mutated_reference_raises_failed_share(self):
        mutated = json.loads(json.dumps(self.reference))
        mutated["table1.events"][3] = "0" * 16
        attempted, failed = run.check(self.rep, mutated)
        self.assertEqual((attempted, failed), (7, 1))
        self.assertGreater(failed / attempted, 0.0)

    def test_changed_output_fails_only_its_record(self):
        rep = table1_rep([event(i) for i in range(4)] + [event(99)])
        self.assertEqual(run.check(rep, self.reference), (7, 1))

    def test_missing_and_extra_records_fail(self):
        short = table1_rep([event(i) for i in range(3)])
        self.assertEqual(run.check(short, self.reference), (7, 2))
        longer = table1_rep([event(i) for i in range(6)])
        self.assertEqual(run.check(longer, self.reference), (8, 1))

    def test_cell_timing_is_not_part_of_a_record(self):
        timed = table1_rep([event(i, wall_us=1234 + i) for i in range(5)])
        self.assertEqual(run.check(timed, self.reference), (7, 0))

    def test_self_checks_without_a_reference(self):
        self.assertEqual(run.check(self.rep, None), (7, 0))
        bad_event = table1_rep([event(0), event(1, ok=False)])
        self.assertEqual(run.check(bad_event, None), (4, 1))
        no_pass_line = table1_rep([event(0)], stdout=b"TABLE I\n")
        self.assertEqual(run.check(no_pass_line, None), (3, 1))
        crashed = table1_rep([event(0)], code=1)
        self.assertEqual(run.check(crashed, None), (3, 1))


class MetricNameTests(unittest.TestCase):
    NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

    def test_names_and_units_use_the_allowed_characters(self):
        for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            self.assertTrue(self.NAME.fullmatch(name), name)
            self.assertTrue(self.UNIT.fullmatch(unit), unit)

    def test_benchmark_json_declares_what_the_runner_reports(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
