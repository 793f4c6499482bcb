"""Spans around calls into floodsim's modules, recorded from outside.

No file under src/ knows about tracing. A Tracer replaces module attributes
(and two class attributes) with thin wrappers at the names through which
pipeline, analysis, scenario, mitigation and cli call each other, records
one span per call, and puts the original objects back on exit. Per-window
and per-packet calls are never wrapped: their counts come from the objects
the wrapped calls return.

A span is (name, op id, parent span, start ns, end ns, counts). Its module
is the part of the name before the first dot; the root span of every op is
"cli.op", so time not inside any wrapped call is cli self time.
"""
from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

_ns = time.perf_counter_ns


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0
        self.counts = {}

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    def as_row(self) -> list:
        return [self.op, self.name, self.parent, self.start, self.end, self.counts]


# --- what the returned objects tell about the work done -----------------


def _packets(trace, args):
    return {"packets": len(trace)}


def _labels(labels, args):
    return {"labels": len(labels)}


def _served(server_trace, args):
    return {"packets": len(server_trace)}


def _trials(mc, args):
    return {"trials": len(mc.trials)}


def _written(paths, args):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _mitigation(res, args):
    st = res.state
    # Every ATTACK verdict after an episode's first is tested under attack,
    # as is the clear verdict that ends the episode; only a stream that
    # ends under attack lacks that closing clear window.
    under_attack_at_end = int(st.mode) != 0
    return {
        "windows": st.windows_tested,
        "attack_windows": st.mitigation_windows + int(under_attack_at_end),
        "events": len(res.events),
        "dropped": st.packets_dropped,
        "attack_dropped": st.attack_dropped,
    }


def _call_sites():
    """(owner, attribute, span name, count function) for every wrapped call."""
    from floodsim import analysis, cli, mitigation, pipeline, scenario, server

    return [
        # cli -> everything it drives
        (cli, "load_scenario", "scenario.load_scenario", None),
        (cli, "run_simulation", "pipeline.run_simulation", None),
        (cli, "write_outputs", "pipeline.write_outputs", _written),
        (cli, "expected_attack_packets", "scenario.expected_attack_packets", None),
        (cli, "expected_attack_fraction", "scenario.expected_attack_fraction", None),
        (cli, "optimal_skip", "mitigation.optimal_skip", None),
        (cli, "sweep_skip", "analysis.sweep_skip", None),
        (cli, "brute_force_optimal", "analysis.brute_force_optimal", None),
        (cli, "write_sweep_csv", "analysis.write_sweep_csv", None),
        (cli, "monte_carlo_cost", "analysis.monte_carlo_cost", _trials),
        (cli, "write_monte_carlo_csv", "analysis.write_monte_carlo_csv", None),
        # scenario; analysis.monte_carlo_cost imports build_trace from here
        # at call time, so it sees the wrapper too
        (scenario, "parse_scenario", "scenario.parse_scenario", None),
        (scenario, "build_trace", "scenario.build_trace", _packets),
        (scenario, "gen_benign", "traffic.gen_benign", None),
        (scenario, "gen_flood", "traffic.gen_flood", None),
        (scenario, "merge", "traffic.merge", None),
        # pipeline; the benchmark's library ops call pipeline.run_simulation
        (pipeline, "run_simulation", "pipeline.run_simulation", None),
        (pipeline, "build_trace", "scenario.build_trace", _packets),
        (pipeline, "run_mitigation", "mitigation.run_mitigation", _mitigation),
        (pipeline, "forward_times", "pacing.forward_times", None),
        (pipeline, "simulate_server", "server.simulate_server", _served),
        (pipeline, "shaping_queue_timeline", "pacing.shaping_queue_timeline", None),
        (pipeline, "peak_occupancy", "pacing.peak_occupancy", None),
        (server.ServerTrace, "queue_timeline", "server.queue_timeline", None),
        (server, "queue_timeline", "pacing.queue_timeline", None),
        (pipeline, "write_trace_csv", "traffic.write_trace_csv", None),
        (pipeline, "write_server_trace_csv", "server.write_server_trace_csv", None),
        (pipeline, "write_timeline_csv", "server.write_timeline_csv", None),
        (pipeline, "write_events_csv", "mitigation.write_events_csv", None),
        (pipeline, "write_summary_csv", "pipeline.write_summary_csv", None),
        # mitigation and analysis
        (mitigation, "classify_stream", "detector.classify_stream", _labels),
        (analysis, "classify_stream", "detector.classify_stream", _labels),
        (analysis, "run_mitigation", "mitigation.run_mitigation", _mitigation),
    ]


# Untraced runs time only the simulation entry points, for sim_pkt_per_s.
SIM_SPANS = ("pipeline.run_simulation", "analysis.monte_carlo_cost")


class Tracer:
    """Records spans while installed (a context manager); full=False wraps
    only the simulation entry points."""

    def __init__(self, full: bool = True):
        self.full = full
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installing and restoring -------------------------------------

    def __enter__(self):
        for owner, attr, name, count in _call_sites():
            if self.full or name in SIM_SPANS:
                self._wrap(owner, attr, name, count)
        if self.full:
            from floodsim.server import RegimeSchedule

            self._count_calls(RegimeSchedule, "next_boundary", "server.simulate_server", "chunks")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, owner, attr, name, count):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts.update(count(result, args))
            return result

        setattr(owner, attr, wrapper)

    def _count_calls(self, owner, attr, inside, key):
        """Count calls made directly inside spans named `inside`; no span."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._stack:
                span = self.spans[self._stack[-1]]
                if span.name == inside:
                    span.counts[key] = span.counts.get(key, 0) + 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- spans -----------------------------------------------------------

    def _open(self, name, op=None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            op = self.spans[parent].op if parent >= 0 else None
        span = Span(name, op, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = span.end = _ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = _ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one op; its duration is the op's wall time."""
        span = self._open("cli.op", op_id)
        try:
            yield span
        finally:
            self._close(span)


# --- analysis of recorded spans -------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Self ns of every span: its duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, None
        for start, end in sorted(children.get(i, ())):
            if reach is None or start >= reach:
                covered += end - start
                reach = end
            elif end > reach:
                covered += end - reach
                reach = end
        out.append((s.end - s.start) - covered)
    return out


# Tolerances of the span coverage check, per op.
PARTITION_TOL_NS = 1_000
UNATTRIBUTED_SHARE = 0.02
UNATTRIBUTED_FLOOR_NS = 5_000_000


def op_summaries(spans: list[Span], scales: dict) -> dict:
    """Per-layer numbers and coverage of every op id found in spans.

    Times are multiplied by the op's speed scale (see speed.py).
    """
    selfs = self_times(spans)
    by_op = defaultdict(list)
    for s, own in zip(spans, selfs):
        by_op[s.op].append((s, own))
    return {op: _summarize(items, scales[op]) for op, items in by_op.items()}


def _summarize(items, scale: float) -> dict:
    incl, own, counts, module_self = (defaultdict(int) for _ in range(4))
    root = None
    for s, self_ns in items:
        if s.name == "cli.op":
            root = s
        incl[s.name] += s.end - s.start
        own[s.name] += self_ns
        module_self[s.module] += self_ns
        for key, val in s.counts.items():
            counts[s.name, key] += val

    def sec(ns):
        return ns * scale / 1e9

    def per(num, den):
        return num / den if den else 0.0

    mit = "mitigation.run_mitigation"
    srv = "server.simulate_server"
    wrote = incl["pipeline.write_outputs"]
    m = {
        "traffic.gen_s": sec(own["traffic.gen_benign"] + own["traffic.gen_flood"] + own["traffic.merge"]),
        "traffic.packets": counts["scenario.build_trace", "packets"],
        "detector.classify_s": sec(incl["detector.classify_stream"]),
        "detector.labels": counts["detector.classify_stream", "labels"],
        "mitigation.self_s": sec(own[mit]),
        "mitigation.windows": counts[mit, "windows"],
        "mitigation.attack_windows": counts[mit, "attack_windows"],
        "mitigation.events": counts[mit, "events"],
        "mitigation.ns_per_window": per(own[mit] * scale, counts[mit, "windows"]),
        "mitigation.drop_precision": per(counts[mit, "attack_dropped"], counts[mit, "dropped"]),
        "pacing.forward_s": sec(incl["pacing.forward_times"]),
        "pacing.timeline_s": sec(incl["pacing.shaping_queue_timeline"] + incl["pacing.queue_timeline"]),
        "pacing.peak_s": sec(incl["pacing.peak_occupancy"]),
        "server.self_s": sec(own[srv]),
        "server.packets": counts[srv, "packets"],
        "server.chunks": counts[srv, "chunks"],
        "server.ns_per_packet": per(own[srv] * scale, counts[srv, "packets"]),
        "server.timeline_s": sec(incl["server.queue_timeline"]),
        "pipeline.self_s": sec(own["pipeline.run_simulation"]),
        "pipeline.write_outputs_s": sec(wrote),
        "pipeline.write_bytes": counts["pipeline.write_outputs", "bytes"],
        "pipeline.write_mb_per_s": per(counts["pipeline.write_outputs", "bytes"] * 1e3, wrote * scale),
        "traffic.write_trace_s": sec(incl["traffic.write_trace_csv"]),
        "server.write_server_trace_s": sec(incl["server.write_server_trace_csv"]),
        "server.write_timeline_s": sec(incl["server.write_timeline_csv"]),
        "mitigation.write_events_s": sec(incl["mitigation.write_events_csv"]),
        "pipeline.write_summary_s": sec(incl["pipeline.write_summary_csv"]),
        "analysis.mc_self_s": sec(own["analysis.monte_carlo_cost"]),
        "analysis.trials": counts["analysis.monte_carlo_cost", "trials"],
        "analysis.cost_model_s": sec(incl["analysis.sweep_skip"] + incl["analysis.brute_force_optimal"]),
        "analysis.write_monte_carlo_s": sec(incl["analysis.write_monte_carlo_csv"]),
        "cli.self_s": sec(own["cli.op"]),
    }
    op_ns = root.end - root.start if root is not None else 0
    gap_ns = op_ns - sum(module_self.values())
    unattributed = own["cli.op"]
    covered = abs(gap_ns) <= PARTITION_TOL_NS and unattributed <= max(
        UNATTRIBUTED_FLOOR_NS, UNATTRIBUTED_SHARE * op_ns
    )
    return {
        "metrics": m,
        "parse_s": [sec(s.end - s.start) for s, _ in items if s.name == "scenario.parse_scenario"],
        "op_ns": op_ns,
        "gap_ns": gap_ns,
        "module_self_s": {k: v / 1e9 for k, v in sorted(module_self.items())},
        "covered": covered and root is not None,
    }
