"""Turns the qoebench harness's JSON records into the benchmark's metrics.

Pure functions, no I/O: run.py feeds them the records of one run and
prints what they return; test_report.py checks them on hand-made records.
"""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# (name, unit). End-to-end metrics come from untraced rounds (--trace 0).
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Per-layer metrics of a traced run (--trace 1), defined on every workload.
PER_LAYER = [
    ("core.build_s", "s"),
    ("core.warmup_s", "s"),
    ("core.warmup_share", "ratio"),
    ("core.measure_s", "s"),
    ("core.teardown_s", "s"),
    ("core.cell_p50_s", "s"),
    ("core.cell_max_s", "s"),
    ("core.pdes_epochs", "count"),
    ("sim.events", "count"),
    ("sim.scheduled", "count"),
    ("sim.cancelled", "count"),
    ("sim.rescheduled", "count"),
    ("sim.peak_depth", "count"),
    ("sim.cancel_ratio", "ratio"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_s", "1/s"),
    ("net.delivered", "count"),
    ("net.ns_per_delivered", "ns"),
    ("net.stray_late", "count"),
    ("net.binds", "count"),
    ("net.demux_rehashes", "count"),
    ("net.link_tx", "count"),
    ("net.bottleneck_offered", "count"),
    ("net.bottleneck_drops", "count"),
    ("net.drop_ratio", "ratio"),
    ("net.pool_slab_growths", "count"),
    ("net.crossing_packets", "count"),
    ("tcp.flows_opened", "count"),
    ("tcp.flow_peak_live", "count"),
    ("tcp.cold_allocs", "count"),
    ("tcp.bytes_per_flow", "B"),
    ("tcp.web_retransmits", "count"),
    ("trafficgen.flows_started", "count"),
    ("trafficgen.flows_completed", "count"),
    ("apps.voip_calls", "count"),
    ("apps.web_loads", "count"),
    ("apps.web_timeouts", "count"),
    ("qoe.scores", "count"),
    ("qoe.score_s", "s"),
    ("qoe.score_share", "ratio"),
    ("sim.probe_ns_per_event", "ns"),
    ("net.probe_ns_per_packet", "ns"),
    ("net.probe_ns_per_lookup", "ns"),
    ("qoe.probe_ns_per_score", "ns"),
    ("sim.est_share", "ratio"),
    ("net.est_share", "ratio"),
    ("qoe.est_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
]

# Per-layer metrics whose base is 0 on some workload: printed when they
# exist, never put in the result line (its metric set is fixed).
REPORT_ONLY = [
    ("core.pdes_quantum_ms", "ms"),
    ("trafficgen.completion_ratio", "ratio"),
]


def valid_name(name):
    return bool(NAME_RE.match(name))


def ratio(num, den):
    """num / den, or None (absent) when the base is 0."""
    if not den:
        return None
    return num / den


def fastest_per_op(rounds, key, steps=True):
    """{operation id: minimum `key` over the rounds}.

    With `steps`, an operation whose wall time carries `part_s` (steps
    that repeat exactly in every round) counts the fastest repetition of
    each step, plus the fastest repetition of the rest of its time.
    """
    best = {}
    parts = {}
    for r in rounds:
        for op in r["ops"]:
            value = op[key]
            if steps and key == "wall_s" and "part_s" in op:
                value -= sum(op["part_s"])
                step_best = parts.setdefault(op["id"], list(op["part_s"]))
                for k, step in enumerate(op["part_s"]):
                    step_best[k] = min(step_best[k], step)
            best[op["id"]] = min(value, best.get(op["id"], value))
    for op_id, step_best in parts.items():
        best[op_id] += sum(step_best)
    return best


def fastest(rounds, key):
    """Sum over the unit of work's operations of each one's minimum `key`
    over the timed rounds; each key is selected on its own.

    The host's speed drifts in episodes of several seconds, as long as a
    whole backbone_long round: a fast round needs every operation to run
    fast at once, a fast operation needs one fast repetition.
    """
    return sum(fastest_per_op(timed(rounds), key).values())


def timed(rounds):
    """The rounds that count for timing (a check round only gives digests)."""
    return [r for r in rounds if not r.get("check")]


def check_ops(untraced, traced, reference=None):
    """Counts operations and failures over every round.

    An operation fails if the harness reported an error for it (exception,
    blackhole or out-of-range output), if its digest differs from the first
    untraced round's (results must be bit-identical across rounds, traced
    or not; that round goes through ExperimentRunner), or if a reference
    digest is given and differs from it.
    Returns (attempted, failed, problems).
    """
    baseline = {op["id"]: op["digest"] for op in untraced[0]["ops"]}
    attempted = failed = 0
    problems = []
    for r in list(untraced) + list(traced):
        kind = "traced" if r.get("traced") else "untraced"
        for op in r["ops"]:
            attempted += 1
            why = []
            if op["error"]:
                why.append(op["error"])
            if baseline.get(op["id"]) != op["digest"]:
                why.append("digest differs from untraced round 0")
            if reference is not None and reference.get(op["id"]) != op["digest"]:
                why.append("digest differs from the reference")
            if why:
                failed += 1
                problems.append(
                    f"{kind} round {r['round']} {op['id']}: {'; '.join(why)}")
    return attempted, failed, problems


def self_times(spans):
    """Self time of each span: its duration minus its children's.

    `spans` are (round, name, parent, start_ns, end_ns) with `parent` an
    index into the same list (-1 for a root). Children of one span run one
    after another, so their durations add up to the part they cover.
    """
    covered = [0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, _, _, start, end) in enumerate(spans)]


def span_summary(spans, round_index):
    """{name: (count, total_s, self_s)} over the spans of one round."""
    selfs = self_times(spans)
    out = {}
    for i, (rnd, name, _, start, end) in enumerate(spans):
        if rnd != round_index:
            continue
        count, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (count + 1, total + (end - start) / 1e9,
                     own + selfs[i] / 1e9)
    return out


def fastest_traced(traced):
    return min(traced, key=lambda r: r["wall_s"])


def end_to_end(untraced, end):
    return {
        "wall_s": fastest(untraced, "wall_s"),
        "setup_s": fastest(untraced, "setup_s"),
        "peak_rss_mb": end["peak_rss_mb"],
    }


def per_layer(untraced, traced, spans, probes):
    """Per-layer metrics from the fastest traced round; None = absent."""
    best = fastest_traced(traced)
    c = best["layers"]
    round_spans = [s for s in spans if s[0] == best["round"]]
    cells = [(s[4] - s[3]) / 1e9 for s in round_spans if s[1] == "cell"]

    def total(name):
        return sum((s[4] - s[3]) / 1e9 for s in round_spans if s[1] == name)

    wall = best["wall_s"]
    untraced_wall = fastest(untraced, "wall_s")
    # Traced operations run whole (spans, no timed steps), so the overhead
    # compares whole-operation minima on both sides.
    untraced_whole = sum(fastest_per_op(timed(untraced), "wall_s",
                                        steps=False).values())
    traced_whole = sum(fastest_per_op(traced, "wall_s", steps=False).values())
    sim_s = total("warmup") + total("measure")
    score_s = total("score")
    wall_ns = wall * 1e9
    return {
        "core.build_s": total("build"),
        "core.warmup_s": total("warmup"),
        "core.warmup_share": ratio(total("warmup"), wall),
        "core.measure_s": total("measure"),
        "core.teardown_s": total("teardown"),
        "core.cell_p50_s": statistics.median(cells) if cells else None,
        "core.cell_max_s": max(cells) if cells else None,
        "core.pdes_epochs": c["pdes_epochs"],
        "core.pdes_quantum_ms": c["pdes_quantum_ms"] or None,
        "sim.events": c["sched_fired"],
        "sim.scheduled": c["sched_scheduled"],
        "sim.cancelled": c["sched_cancelled"],
        "sim.rescheduled": c["sched_rescheduled"],
        "sim.peak_depth": c["sched_peak_depth"],
        "sim.cancel_ratio": ratio(c["sched_cancelled"], c["sched_scheduled"]),
        "sim.ns_per_event": ratio(sim_s * 1e9, c["sched_fired"]),
        "sim.events_per_s": ratio(c["sched_fired"], untraced_wall),
        "net.delivered": c["delivered"],
        "net.ns_per_delivered": ratio(sim_s * 1e9, c["delivered"]),
        "net.stray_late": c["stray_late"],
        "net.binds": c["binds"],
        "net.demux_rehashes": c["demux_rehashes"],
        "net.link_tx": c["link_tx"],
        "net.bottleneck_offered": c["bottleneck_offered"],
        "net.bottleneck_drops": c["bottleneck_drops"],
        "net.drop_ratio": ratio(c["bottleneck_drops"], c["bottleneck_offered"]),
        "net.pool_slab_growths": c["slab_growths"],
        "net.crossing_packets": c["crossing_packets"],
        "tcp.flows_opened": c["flows_opened"],
        "tcp.flow_peak_live": c["flow_peak_live"],
        "tcp.cold_allocs": c["flow_cold_allocs"],
        "tcp.bytes_per_flow": ratio(
            c["flow_hot_bytes"] * c["flow_peak_live"]
            + c["flow_cold_bytes"] * c["flow_cold_peak_live"],
            c["flow_peak_live"]),
        "tcp.web_retransmits": c["web_retransmits"],
        "trafficgen.flows_started": c["flows_started"],
        "trafficgen.flows_completed": c["flows_completed"],
        "trafficgen.completion_ratio": ratio(c["flows_completed"],
                                             c["flows_started"]),
        "apps.voip_calls": c["voip_calls"],
        "apps.web_loads": c["web_loads"],
        "apps.web_timeouts": c["web_timeouts"],
        "qoe.scores": c["scores"],
        "qoe.score_s": score_s,
        "qoe.score_share": ratio(score_s, wall),
        "sim.probe_ns_per_event": probes["sched_ns_per_event"],
        "net.probe_ns_per_packet": probes["link_ns_per_packet"],
        "net.probe_ns_per_lookup": probes["demux_ns_per_lookup"],
        "qoe.probe_ns_per_score": probes["qoe_ns_per_score"],
        "sim.est_share": ratio(
            c["sched_fired"] * probes["sched_ns_per_event"], wall_ns),
        "net.est_share": ratio(
            c["link_tx"] * probes["link_ns_per_packet"]
            + c["delivered"] * probes["demux_ns_per_lookup"], wall_ns),
        "qoe.est_share": ratio(c["scores"] * probes["qoe_ns_per_score"],
                               wall_ns),
        "trace.overhead_ratio": ratio(traced_whole - untraced_whole,
                                      untraced_whole),
        "trace.traced_wall_s": traced_whole,
        "trace.untraced_wall_s": untraced_whole,
    }


def result_line(names, values, attempted, failed):
    """The run's result object. Every metric in `names` must be present:
    a missing one would silently shrink the benchmark."""
    metrics = {}
    for name, unit in names:
        value = values.get(name)
        if value is None:
            raise ValueError(f"metric {name} is absent")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
