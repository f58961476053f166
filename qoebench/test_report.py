"""Tests for the benchmark's own logic (report.py).

    python3 -m unittest discover -s qoebench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import report  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


def op(op_id, digest, error=""):
    return {"id": op_id, "digest": digest, "error": error}


def round_(index, wall, ops=(), traced=False):
    return {"round": index, "traced": traced, "wall_s": wall, "ops": list(ops)}


def timed(op_id, wall, setup):
    return dict(op(op_id, "00"), wall_s=wall, setup_s=setup)


class FastestRoundTest(unittest.TestCase):
    def test_wall_and_setup_are_selected_separately(self):
        rounds = [round_(0, 2.0, [timed("a", 1.0, 0.010)]),
                  round_(1, 1.5, [timed("a", 0.5, 0.030)]),
                  round_(2, 1.8, [timed("a", 0.8, 0.005)])]
        values = report.end_to_end(rounds, {"peak_rss_mb": 12.5})
        self.assertEqual(values["wall_s"], 0.5)     # round 1
        self.assertEqual(values["setup_s"], 0.005)  # round 2
        self.assertEqual(values["peak_rss_mb"], 12.5)

    def test_each_operation_keeps_its_own_fastest_repetition(self):
        rounds = [round_(0, 3.0, [timed("a", 1.0, 0.2), timed("b", 2.0, 0.1)]),
                  round_(1, 3.0, [timed("a", 2.0, 0.1), timed("b", 1.0, 0.2)])]
        self.assertEqual(report.fastest(rounds, "wall_s"), 2.0)
        self.assertAlmostEqual(report.fastest(rounds, "setup_s"), 0.2)

    def test_steps_of_an_operation_keep_their_own_fastest_repetition(self):
        def stepped(wall, steps):
            return round_(0, wall, [dict(op("ring", "00"), wall_s=wall,
                                         part_s=steps)])
        rounds = [stepped(1.1, [0.5, 0.5]), stepped(1.2, [0.3, 0.8])]
        # rest: min(0.1, 0.1); steps: 0.3 + 0.5
        self.assertAlmostEqual(report.fastest(rounds, "wall_s"), 0.9)

    def test_check_round_gives_digests_but_no_timing(self):
        check = dict(round_(-1, 0.1, [timed("a", 0.1, 0.0)]), check=True)
        rounds = [check, round_(0, 2.0, [timed("a", 2.0, 0.5)])]
        self.assertEqual(report.fastest(rounds, "wall_s"), 2.0)
        self.assertEqual(report.fastest(rounds, "setup_s"), 0.5)
        planted = round_(0, 2.0, [dict(timed("a", 2.0, 0.5), digest="01")])
        self.assertEqual(report.check_ops([check, planted], [])[:2], (2, 1))

    def test_fastest_traced_round_is_used_for_layers(self):
        self.assertEqual(
            report.fastest_traced([round_(0, 3.0), round_(1, 2.0),
                                   round_(2, 2.5)])["round"], 1)


class RatioTest(unittest.TestCase):
    def test_zero_base_is_absent(self):
        self.assertIsNone(report.ratio(5, 0))
        self.assertIsNone(report.ratio(0, 0))
        self.assertEqual(report.ratio(0, 4), 0.0)
        self.assertEqual(report.ratio(3, 4), 0.75)

    def test_absent_metric_never_reaches_the_result_line(self):
        with self.assertRaises(ValueError):
            report.result_line([("x.ratio", "ratio")], {"x.ratio": None}, 1, 0)
        line = report.result_line([("x.ratio", "ratio")], {"x.ratio": 0.0}, 1, 0)
        self.assertEqual(line["metrics"]["x.ratio"]["value"], 0.0)

    def test_completion_ratio_absent_without_generators(self):
        layers = {k: 0 for k in (
            "sched_fired", "sched_scheduled", "sched_cancelled",
            "sched_rescheduled", "sched_peak_depth", "delivered", "stray_late",
            "binds", "demux_rehashes", "link_tx", "bottleneck_offered",
            "bottleneck_drops", "slab_growths", "crossing_packets",
            "flows_opened", "flow_peak_live", "flow_cold_allocs",
            "flow_hot_bytes", "flow_cold_bytes", "flow_cold_peak_live",
            "web_retransmits", "flows_started", "flows_completed",
            "voip_calls", "web_loads", "web_timeouts", "scores",
            "pdes_epochs", "pdes_quantum_ms")}
        traced = [dict(round_(0, 1.0, [timed("x", 1.0, 0.0)], traced=True),
                       layers=layers)]
        spans = [[0, "round", -1, 0, 10**9], [0, "cell", 0, 0, 10**9]]
        probes = {"sched_ns_per_event": 50.0, "link_ns_per_packet": 100.0,
                  "demux_ns_per_lookup": 20.0, "qoe_ns_per_score": 60.0}
        values = report.per_layer([round_(0, 0.9, [timed("x", 0.8, 0.0)])],
                                  traced, spans, probes)
        self.assertIsNone(values["trafficgen.completion_ratio"])
        self.assertIsNone(values["sim.cancel_ratio"])
        self.assertIsNone(values["core.pdes_quantum_ms"])
        self.assertEqual(values["core.cell_max_s"], 1.0)
        self.assertAlmostEqual(values["trace.overhead_ratio"], 0.25)


class CheckOpsTest(unittest.TestCase):
    def rounds(self):
        ops = [op("qos/a", "01"), op("voip/a", "02")]
        return [round_(0, 1.0, ops), round_(1, 1.1, ops)]

    def test_clean_run(self):
        attempted, failed, problems = report.check_ops(
            self.rounds(), [], {"qos/a": "01", "voip/a": "02"})
        self.assertEqual((attempted, failed, problems), (4, 0, []))

    def test_planted_reference_mismatch_counts_as_failure(self):
        attempted, failed, problems = report.check_ops(
            self.rounds(), [], {"qos/a": "01", "voip/a": "ff"})
        self.assertEqual((attempted, failed), (4, 2))
        self.assertIn("reference", problems[0])

    def test_round_to_round_difference_counts_as_failure(self):
        untraced = self.rounds()
        traced = [round_(0, 1.2, ops=[op("qos/a", "01"), op("voip/a", "03")],
                         traced=True)]
        attempted, failed, _ = report.check_ops(untraced, traced)
        self.assertEqual((attempted, failed), (6, 1))

    def test_harness_error_counts_as_failure(self):
        untraced = [round_(0, 1.0, [op("qos/a", "01", "blackholed 3")])]
        self.assertEqual(report.check_ops(untraced, [])[:2], (1, 1))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [[0, "round", -1, 0, 100], [0, "cell", 0, 10, 90],
                 [0, "build", 1, 10, 30], [0, "warmup", 1, 30, 80]]
        self.assertEqual(report.self_times(spans), [20, 10, 20, 50])
        summary = report.span_summary(spans, 0)
        self.assertEqual(summary["cell"], (1, 80e-9, 10e-9))


class NameTest(unittest.TestCase):
    def test_metric_names_use_allowed_characters(self):
        for name, unit in (report.END_TO_END + report.PER_LAYER
                           + report.REPORT_ONLY):
            self.assertTrue(report.valid_name(name), name)
        for bad in ("", "x y", "a/b", ".lead", "é", "x" * 65, "a:b"):
            self.assertFalse(report.valid_name(bad), bad)

    def test_names_are_unique(self):
        names = [n for n, _ in report.END_TO_END + report.PER_LAYER
                 + report.REPORT_ONLY]
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         report.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         report.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
