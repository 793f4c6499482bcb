"""End-to-end scenario runs: traffic -> mitigation -> shaper -> server.

Stages are wired in stream order. With mitigation on, each packet first
gets an outcome (dropped at a verdict, or released at some instant); the
released stream is then paced onto the link and served FCFS on the far
side. Without the shaper the arrivals hit the server raw, and the service
distribution switches to its attack regime inside flood windows.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import write_columns
from .mitigation import (
    AdaptiveSkip,
    FixedSkip,
    MitigationResult,
    run_mitigation,
    write_events_csv,
)
from .model import (
    STREAM_DETECTOR,
    STREAM_SERVICE,
    InvariantViolation,
    RngStream,
    Trace,
    substream,
    to_ns,
)
from .pacing import forward_times, peak_occupancy, shaping_queue_timeline
from .scenario import Scenario, build_trace
from .server import (
    NORMAL_ALWAYS,
    RegimeSchedule,
    ServerTrace,
    simulate_server,
    write_server_trace_csv,
    write_timeline_csv,
)
from .traffic import write_trace_csv


@dataclass
class SimulationResult:
    scenario: Scenario
    trace: Trace
    mitigation: MitigationResult | None
    emit_ns: np.ndarray        # instant each packet left for the server, -1 if dropped
    server: ServerTrace
    sqf_timeline: tuple | None  # (times_ns, counts) at the shaper entrance
    server_timeline: tuple      # (times_ns, counts) at the server
    summary: dict


def _empty_timeline():
    return np.zeros(1, np.int64), np.zeros(1, np.int64)


def run_simulation(scenario: Scenario) -> SimulationResult:
    scenario.validate()
    base = RngStream(scenario.seed, 0)
    trace = build_trace(scenario, base)
    n = len(trace)
    gap_ns = to_ns(scenario.pacing_gap_s)
    sample_dt_ns = to_ns(scenario.sample_dt_s)

    mit = None
    if scenario.aam_enabled:
        if scenario.skip_mode == "fixed":
            policy = FixedSkip(scenario.fixed_skip)
        else:
            policy = AdaptiveSkip(scenario.beta / scenario.alpha)
        mit = run_mitigation(
            trace,
            scenario.detector,
            policy,
            substream(base, STREAM_DETECTOR),
            test_pacing_ns=gap_ns,
        )
        # pace the released stream in (release instant, seq) order
        rel_idx = np.flatnonzero(~mit.dropped_mask())
        rel_idx = rel_idx[np.argsort(mit.release_ns[rel_idx], kind="stable")]
        rel_times = mit.release_ns[rel_idx]
    else:  # every packet is released at its arrival, already in order
        rel_idx = np.arange(n, dtype=np.int64)
        rel_times = trace.arrival_ns
    if scenario.sqf_enabled:
        emitted = forward_times(rel_times, gap_ns)
        serve_sched = NORMAL_ALWAYS
    else:  # the raw stream reaches the server, which slows down while a flood lasts
        emitted = rel_times
        serve_sched = RegimeSchedule([(to_ns(f.start_s), to_ns(f.end_s)) for f in scenario.floods])
    emit_ns = np.full(n, -1, np.int64)
    emit_ns[rel_idx] = emitted

    server = simulate_server(
        emitted, scenario.service, serve_sched, substream(base, STREAM_SERVICE), seq=rel_idx
    )

    if len(server) != len(rel_idx):
        raise InvariantViolation("served packet count diverged from forwarded count")
    dropped = int(mit.state.packets_dropped) if mit is not None else 0
    forwarded = int(mit.state.packets_forwarded) if mit is not None else n
    if dropped + forwarded != n or forwarded != len(rel_idx):
        raise InvariantViolation(
            f"packet conservation broken: {dropped} dropped + {forwarded} forwarded != {n}"
        )

    sqf_timeline = _empty_timeline() if scenario.sqf_enabled else None
    sqf_peak = sqf_max_delay_ns = 0
    if scenario.sqf_enabled and n:
        # a packet leaves the shaper at its emission, or at the verdict that dropped it
        exit_ns = emit_ns if mit is None else np.where(emit_ns < 0, mit.drop_time_ns, emit_ns)
        sqf_timeline = shaping_queue_timeline(trace.arrival_ns, exit_ns, sample_dt_ns)
        sqf_peak = peak_occupancy(trace.arrival_ns, exit_ns)
        sqf_max_delay_ns = int((emitted - trace.arrival_ns[rel_idx]).max()) if len(rel_idx) else 0

    server_timeline = _empty_timeline()
    server_peak = max_wait_ns = mean_wait_ns = makespan_ns = 0
    if n and len(server):
        server_timeline = server.queue_timeline(sample_dt_ns)
        server_peak = peak_occupancy(server.arrival_ns, server.departure_ns)
        max_wait_ns = int(server.wait_ns.max())
        mean_wait_ns = float(server.wait_ns.mean())
        makespan_ns = int(server.departure_ns.max())

    summary = {
        "packets_total": n,
        "packets_attack": trace.attack_count(),
        "packets_benign": n - trace.attack_count(),
        "sqf_enabled": int(scenario.sqf_enabled),
        "aam_enabled": int(scenario.aam_enabled),
        "packets_forwarded": forwarded,
        "packets_dropped": dropped,
        "server_peak_queue": server_peak,
        "server_max_wait_s": max_wait_ns / 1e9,
        "server_mean_wait_s": mean_wait_ns / 1e9,
        "makespan_s": makespan_ns / 1e9,
    }
    if scenario.sqf_enabled:
        summary["sqf_peak_queue"] = sqf_peak
        summary["sqf_max_delay_s"] = sqf_max_delay_ns / 1e9
    if mit is not None:
        st = mit.state
        summary.update(
            benign_dropped=st.benign_dropped,
            attack_dropped=st.attack_dropped,
            windows_tested=st.windows_tested,
            mitigation_windows=st.mitigation_windows,
            attack_episodes=st.episodes,
            final_skip=st.skip,
        )

    return SimulationResult(
        scenario=scenario,
        trace=trace,
        mitigation=mit,
        emit_ns=emit_ns,
        server=server,
        sqf_timeline=sqf_timeline,
        server_timeline=server_timeline,
        summary=summary,
    )


def write_summary_csv(path, summary: dict) -> None:
    """Columns: key,value. Floats carry 9 fractional digits."""
    values = [format(v, ".9f") if isinstance(v, float) else str(int(v)) for v in summary.values()]
    write_columns(path, ["key", "value"], [list(summary), values])


def write_outputs(result: SimulationResult, out_dir) -> list:
    """Write the run's CSV files into out_dir and return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name, writer, *args):
        path = out / name
        writer(path, *args)
        written.append(path)

    emit("trace.csv", write_trace_csv, result.trace)
    emit("server_trace.csv", write_server_trace_csv, result.server)
    emit("server_timeline.csv", write_timeline_csv, *result.server_timeline)
    if result.sqf_timeline is not None:
        emit("sqf_timeline.csv", write_timeline_csv, *result.sqf_timeline)
    if result.mitigation is not None:
        emit("aam_events.csv", write_events_csv, result.mitigation.events)
    emit("summary.csv", write_summary_csv, result.summary)
    return written
