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
    is_sorted,
    substream,
    to_ns,
)
# unused: peak_occupancy and shaping_queue_timeline are kept for perfbench's
# tracer, which wraps them here by name (ROADMAP item 4, PR B)
from .pacing import _peak, _timeline, forward_times, peak_occupancy, shaping_queue_timeline
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
    """One run's stages and summary. mitigation.outcomes, release_ns and
    drop_time_ns, and server.departure_ns and seq, are computed on each read
    or are read-only views, and mitigation.events on its first read. When
    mitigation.released() holds no packet, emit_ns is one read-only array
    with server.arrival_ns (and trace.arrival_ns when no shaper paces it)."""

    scenario: Scenario
    trace: Trace
    mitigation: MitigationResult | None
    emit_ns: np.ndarray        # instant each packet left for the server, -1 if dropped
    server: ServerTrace
    sqf_timeline: tuple | None  # (times_ns, counts) at the shaper entrance
    server_timeline: tuple      # (times_ns, counts) at the server
    summary: dict


def drive_run(scenario: Scenario, base: RngStream, run_key: int, policy):
    """A run's trace from its keys of the base stream and, under a skip policy
    (None: no mitigation), the machine on labels from its detector key, with
    verdicts paced at the shaper gap if the shaper is on, else at 0."""
    trace = build_trace(scenario, base, run_key)
    if policy is None:
        return trace, None
    pace = to_ns(scenario.pacing_gap_s) if scenario.sqf_enabled else 0
    rng = substream(base, run_key + STREAM_DETECTOR)
    return trace, run_mitigation(trace, scenario.detector, policy, rng, test_pacing_ns=pace)


def run_simulation(scenario: Scenario) -> SimulationResult:
    scenario.validate()
    base = RngStream(scenario.seed, 0)
    policy = None
    if scenario.aam_enabled:
        policy = (FixedSkip(scenario.fixed_skip) if scenario.skip_mode == "fixed"
                  else AdaptiveSkip(scenario.beta / scenario.alpha))
    trace, mit = drive_run(scenario, base, 0, policy)
    n = len(trace)
    sample_dt_ns = to_ns(scenario.sample_dt_s)

    # each per-packet array's order is checked once: the arrivals by
    # forward_times (here when it takes release instants, by simulate_server
    # on the raw path), the emissions by simulate_server, and here, as run
    # invariants, the shaper's merged exits and the server's departures.
    # With none held, the shaper takes the arrivals themselves in seq order
    rel_idx, emitted, drops = (None, trace.arrival_ns, None) if mit is None else mit.released()
    in_order = rel_idx is None
    sqf_timeline, sqf_summary = None, {}
    if scenario.sqf_enabled:
        emitted = forward_times(emitted, to_ns(scenario.pacing_gap_s))
        serve_sched = NORMAL_ALWAYS
        # a packet leaves the shaper at its emission, or at the verdict that
        # dropped it; occupancy counts the exits' multiset, so the sorted drop
        # instants are merged into the sorted emissions, not scattered by seq
        exit_ns = emitted if in_order else np.insert(emitted, emitted.searchsorted(drops, "right"), drops)
        arrived = trace.arrival_ns if in_order else trace.arrival_ns[rel_idx]
        if len(exit_ns) != n:  # one exit per arrival: an emission or a drop
            raise InvariantViolation(f"shaper exits diverged: {len(exit_ns)} for {n} arrivals")
        if not in_order and not (is_sorted(trace.arrival_ns) and is_sorted(exit_ns)):
            raise InvariantViolation("shaper arrivals or exits out of order")
        # the k-th earliest exit may not precede the k-th earliest arrival
        if np.any(exit_ns < trace.arrival_ns):
            raise InvariantViolation("a packet left the shaper before it arrived")
        sqf_timeline = _timeline(trace.arrival_ns, exit_ns, sample_dt_ns)
        sqf_summary["sqf_peak_queue"] = _peak(trace.arrival_ns, exit_ns)
        sqf_summary["sqf_max_delay_s"] = int((emitted - arrived).max(initial=0)) / 1e9
        del exit_ns, arrived, drops  # not held while the server runs
    else:  # the raw stream reaches the server, which slows down while a flood lasts
        serve_sched = RegimeSchedule([(to_ns(f.start_s), to_ns(f.end_s)) for f in scenario.floods])
    # in seq order the scatter is the identity, so emit_ns is the emission
    # array itself, shared by several names: none may write to it
    emitted.flags.writeable = False
    emit_ns = emitted
    if not in_order:
        emit_ns = np.full(n, -1, np.int64)
        emit_ns[rel_idx] = emitted

    server = simulate_server(
        emitted, scenario.service, serve_sched, substream(base, STREAM_SERVICE), seq=rel_idx
    )

    if len(server) != len(emitted):
        raise InvariantViolation("served packet count diverged from forwarded count")
    dropped = int(mit.state.packets_dropped) if mit is not None else 0
    forwarded = int(mit.state.packets_forwarded) if mit is not None else n
    if dropped + forwarded != n or forwarded != len(emitted):
        raise InvariantViolation(
            f"packet conservation broken: {dropped} dropped + {forwarded} forwarded != {n}"
        )

    departure_ns = server.departure_ns  # computed on read: not held by the result
    if not is_sorted(departure_ns):
        raise InvariantViolation("server departures out of FIFO order")
    server_timeline = _timeline(server.arrival_ns, departure_ns, sample_dt_ns)
    summary = {
        "packets_total": n,
        "packets_attack": (n_attack := trace.attack_count()),
        "packets_benign": n - n_attack,
        "sqf_enabled": int(scenario.sqf_enabled),
        "aam_enabled": int(scenario.aam_enabled),
        "packets_forwarded": forwarded,
        "packets_dropped": dropped,
        "server_peak_queue": _peak(server.arrival_ns, departure_ns),
        "server_max_wait_s": int(server.wait_ns.max(initial=0)) / 1e9,
        "server_mean_wait_s": float(server.wait_ns.mean()) / 1e9 if len(server) else 0.0,
        "makespan_s": (departure_ns.item(-1) if len(server) else 0) / 1e9,
        **sqf_summary,
    }
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

    return SimulationResult(scenario, trace, mit, emit_ns, server, sqf_timeline, server_timeline,
                            summary)


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
