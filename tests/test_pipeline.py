"""End-to-end wiring: mitigation feeding the shaper feeding the server."""
import dataclasses
import gc
import hashlib
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodsim import (
    RngStream,
    Scenario,
    ServiceTimeModel,
    load_scenario,
    parse_scenario,
    run_simulation,
    to_ns,
    write_outputs,
)
from floodsim import pipeline
from floodsim.cli import main
from floodsim.detector import DetectorModel
from floodsim.mitigation import AdaptiveSkip, Outcome
from floodsim.model import (
    MAX_ELEMENTS,
    MEMORY_BUDGET,
    RUN_BYTES_PER_PACKET,
    InvariantViolation,
    is_sorted,
)
from floodsim.pacing import peak_occupancy, queue_timeline, shaping_queue_timeline
from floodsim.pipeline import drive_run
from floodsim.server import ServerTrace
from floodsim.traffic import BenignSpec, FloodSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def small_mix(**over):
    scn = Scenario(
        benign=BenignSpec(period_s=0.005, jitter_fraction=0.2),
        floods=[FloodSpec(start_s=1.0, duration_s=2.0, rate_pps=800.0)],
        detector=DetectorModel(window=20),
        pacing_gap_s=1.0e-3,
        seed=3,
        horizon_s=5.0,
    )
    return dataclasses.replace(scn, **over) if over else scn


def test_conservation_and_pacing():
    res = run_simulation(small_mix())
    n = res.summary["packets_total"]
    assert n == len(res.trace)
    assert res.summary["packets_dropped"] + res.summary["packets_forwarded"] == n

    released = res.emit_ns >= 0
    assert int(released.sum()) == res.summary["packets_forwarded"]
    np.testing.assert_array_equal(released, res.mitigation.outcomes != Outcome.DROPPED)
    assert len(res.server) == int(released.sum())

    # the shaper's contract: consecutive emissions at least one gap apart,
    # never before the packet is available
    emitted = np.sort(res.emit_ns[released])
    assert np.all(np.diff(emitted) >= to_ns(1.0e-3))
    assert np.all(res.emit_ns[released] >= res.trace.arrival_ns[released])


def test_summary_keys():
    res = run_simulation(small_mix())
    assert {
        "packets_total",
        "packets_attack",
        "packets_benign",
        "sqf_enabled",
        "aam_enabled",
        "packets_forwarded",
        "packets_dropped",
        "server_peak_queue",
        "server_max_wait_s",
        "server_mean_wait_s",
        "makespan_s",
        "sqf_peak_queue",
        "sqf_max_delay_s",
        "benign_dropped",
        "attack_dropped",
        "windows_tested",
        "mitigation_windows",
        "attack_episodes",
        "final_skip",
    } <= set(res.summary)
    assert res.summary["attack_episodes"] >= 1
    assert res.summary["attack_dropped"] > 0
    assert res.summary["final_skip"] >= 1


def test_sqf_timeline_drains_to_zero():
    res = run_simulation(small_mix())
    times, counts = res.sqf_timeline
    assert counts[-1] == 0
    # the sampled view can miss the true peak but never exceed it
    assert counts.max() <= res.summary["sqf_peak_queue"]
    assert len(times) == len(counts)


def test_quiet_scenario_drops_nothing():
    res = run_simulation(load_scenario(SCENARIOS / "noflood.cfg"))
    assert res.summary["packets_attack"] == 0
    assert res.summary["packets_dropped"] == 0
    assert res.summary["attack_episodes"] == 0
    assert res.summary["packets_forwarded"] == res.summary["packets_total"]
    assert res.summary["windows_tested"] > 0
    assert not res.mitigation.events.is_kind("WINDOW_ATTACK").any()


def test_no_aam_forwards_everything():
    res = run_simulation(small_mix(aam_enabled=False))
    assert res.mitigation is None
    assert "benign_dropped" not in res.summary
    n = res.summary["packets_total"]
    assert res.summary["packets_forwarded"] == n
    assert np.all(res.emit_ns >= 0)
    assert len(res.server) == n


def test_in_order_release_shares_one_read_only_emission_array():
    # with no drop every packet is released at its arrival, in seq order, so
    # the scatter is the identity and the names share the emission array
    shaped = run_simulation(small_mix(aam_enabled=False))
    raw = run_simulation(small_mix(sqf_enabled=False, aam_enabled=False))
    quiet = run_simulation(load_scenario(SCENARIOS / "noflood.cfg"))
    assert quiet.summary["packets_dropped"] == 0
    assert shaped.emit_ns is shaped.server.arrival_ns
    assert quiet.emit_ns is quiet.server.arrival_ns
    assert raw.emit_ns is raw.server.arrival_ns is raw.trace.arrival_ns
    np.testing.assert_array_equal(quiet.mitigation.release_ns, quiet.trace.arrival_ns)
    for shared in (shaped.emit_ns, raw.emit_ns, quiet.emit_ns):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] += 1
    # drops take the scatter into an array of its own
    mixed = run_simulation(small_mix())
    assert mixed.summary["packets_dropped"] > 0
    assert mixed.emit_ns.flags.writeable and mixed.emit_ns is not mixed.server.arrival_ns
    np.testing.assert_array_equal(mixed.emit_ns[mixed.server.seq], mixed.server.arrival_ns)
    np.testing.assert_array_equal(mixed.emit_ns < 0, mixed.mitigation.outcomes == Outcome.DROPPED)


def test_run_without_drops_holds_each_fact_once():
    # noflood.cfg runs the machine and drops nothing: the release instants are
    # the arrivals, and the served packets are the stream in seq order
    res = run_simulation(load_scenario(SCENARIOS / "noflood.cfg"))
    mit, srv = res.mitigation, res.server
    assert res.summary["packets_dropped"] == 0 < len(srv)
    assert np.shares_memory(mit.release_ns, res.trace.arrival_ns)
    with pytest.raises(ValueError, match="read-only"):
        mit.release_ns[0] = 0
    assert "seq" not in vars(srv)
    np.testing.assert_array_equal(srv.seq, np.arange(len(srv)))
    for name in ("outcomes", "release_ns", "drop_time_ns"):
        getattr(mit, name)
    assert "events" not in vars(mit)


def test_no_sqf_hits_server_raw():
    scn = small_mix(
        sqf_enabled=False,
        aam_enabled=False,
        service=ServiceTimeModel(outlier_prob=0.0),
    )
    res = run_simulation(scn)
    assert res.sqf_timeline is None
    assert "sqf_peak_queue" not in res.summary
    np.testing.assert_array_equal(res.emit_ns, res.trace.arrival_ns)

    # service switches to the attack regime while the flood is on
    start_ns = res.server.arrival_ns + res.server.wait_ns
    inside = (start_ns >= to_ns(1.0)) & (start_ns < to_ns(3.0))
    assert inside.sum() > 100 and (~inside).sum() > 100
    assert res.server.service_ns[inside].mean() > 4.3e6
    assert res.server.service_ns[~inside].mean() < 3.2e6


def test_write_outputs_and_determinism(tmp_path):
    scn = small_mix()
    names = sorted(
        [
            "trace.csv",
            "server_trace.csv",
            "server_timeline.csv",
            "sqf_timeline.csv",
            "aam_events.csv",
            "summary.csv",
        ]
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    files1 = write_outputs(run_simulation(scn), d1)
    files2 = write_outputs(run_simulation(scn), d2)
    assert sorted(p.name for p in files1) == names
    assert sorted(p.name for p in files2) == names
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_summary_csv_format(tmp_path):
    res = run_simulation(small_mix())
    write_outputs(res, tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    row = dict(line.split(",", 1) for line in lines[1:])
    assert row["packets_total"] == str(res.summary["packets_total"])
    assert re.fullmatch(r"\d+\.\d{9}", row["server_max_wait_s"])


# runs whose server sees no packet: the scenario text, and the pinned sha256 of
# the summary.csv it writes
NOTHING_SERVED = {
    "no traffic": (
        "benign.enabled = false\nrun.horizon_s = 1\n",
        "da4a54a511203a15e352b196233ae23b7da39615c6bdff145ed38de4c796bb24",
    ),
    "two silent floods": (
        "benign.enabled = false\n"
        "flood.1.start_s = 1\nflood.1.duration_s = 0.001\nflood.1.rate_pps = 0.001\n"
        "flood.2.start_s = 2\nflood.2.duration_s = 0.001\nflood.2.rate_pps = 0.001\n",
        "da4a54a511203a15e352b196233ae23b7da39615c6bdff145ed38de4c796bb24",
    ),
    # 1 030 flood packets, every one dropped by a perfect detector
    "all dropped": (
        "benign.enabled = false\n"
        "flood.1.start_s = 1\nflood.1.duration_s = 0.5\nflood.1.rate_pps = 2000\n"
        "detector.tpr = 1\ndetector.tnr = 1\ndetector.window = 10\n"
        "aam.m_mode = fixed\naam.m_fixed = 5\n",
        "8617f4018e2973c0cac05916db6fb77bb4351450da0ead65bab71f5636a10307",
    ),
}


@pytest.mark.parametrize("text, summary_sha256", NOTHING_SERVED.values(), ids=NOTHING_SERVED)
def test_empty_scenario_runs(text, summary_sha256, tmp_path):
    res = run_simulation(parse_scenario(text))
    assert len(res.server) == 0
    assert res.summary["packets_dropped"] == res.summary["packets_total"]
    for key in ("server_peak_queue", "server_max_wait_s", "server_mean_wait_s", "makespan_s"):
        assert res.summary[key] == 0

    # every stage takes the one grid rule: 0 through one step past its last instant
    dt = to_ns(res.scenario.sample_dt_s)
    times, counts = res.server_timeline
    assert len(times) == to_ns(res.summary["makespan_s"]) // dt + 2
    np.testing.assert_array_equal(counts, 0)
    np.testing.assert_array_equal(res.server_timeline, res.server.queue_timeline(dt))
    exit_ns = np.sort(np.where(res.emit_ns < 0, res.mitigation.drop_time_ns, res.emit_ns))
    np.testing.assert_array_equal(res.sqf_timeline, queue_timeline(res.trace.arrival_ns, exit_ns, dt))

    write_outputs(res, tmp_path)
    assert hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest() == summary_sha256


def test_run_memory_peak_per_packet():
    # benign_monitor's traffic over 2 s: 200 k packets, all windows clear.
    # tracemalloc counts numpy's buffers, so the figures do not follow host
    # load. Measured: a peak of 50.7 B/packet during the run, 38.7 held after
    # it (a run without drops builds no event log, no outcome array and no seq
    # array) and 63.7 while every public per-packet array is read at once
    # (release_ns is then a view of the arrivals, and no read expands the
    # log). Each bound adds 2.5-4 % for other numpy builds; the run's bound
    # sets the packet cap from the memory budget.
    scn = parse_scenario(
        "benign.period_s = 0.0001\nbenign.jitter_fraction = 0.3\nbenign.num_sources = 10\n"
        "sqf.D_ms = 0.005\ndetector.window = 20\nrun.horizon_s = 2\n"
    )
    run_simulation(scn)  # warm-up: a process's first run also allocates one-time state
    gc.collect()
    tracemalloc.start()
    try:
        res = run_simulation(scn)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        # all at once, as perfbench's library check holds them
        mit, srv = res.mitigation, res.server
        arrays = [res.trace.arrival_ns, res.trace.klass, res.trace.source_id, res.emit_ns,
                  srv.seq, srv.arrival_ns, srv.wait_ns, srv.service_ns, srv.departure_ns,
                  mit.outcomes, mit.release_ns, mit.drop_time_ns]
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = res.summary["packets_total"]
    assert n == 200_000 and len(arrays) == 12
    assert peak / n <= 52 == RUN_BYTES_PER_PACKET
    assert MAX_ELEMENTS * RUN_BYTES_PER_PACKET <= MEMORY_BUDGET
    assert held / n <= 40
    assert read_peak / n <= 66
    assert "events" not in vars(mit) and "seq" not in vars(srv)


def test_empty_aam_run_keeps_the_aam_outputs(tmp_path):
    # one flood of 0.001 packets/s over 1 ms sends no packet at this seed
    quiet = FloodSpec(start_s=1.0, duration_s=0.001, rate_pps=0.001)
    empty = run_simulation(small_mix(benign=None, floods=[quiet]))
    full = run_simulation(small_mix())
    assert empty.summary["packets_total"] == 0 < full.summary["packets_total"]
    assert list(empty.summary) == list(full.summary)
    assert empty.summary["windows_tested"] == empty.summary["final_skip"] == 0
    names = [p.name for p in write_outputs(empty, tmp_path / "empty")]
    assert names == [p.name for p in write_outputs(full, tmp_path / "full")]
    events = (tmp_path / "empty" / "aam_events.csv").read_bytes()
    assert events == b"event_time_s,event,from_seq,to_seq,m_value\r\n"


def test_run_key_zero_is_the_simulate_run():
    # dualflood.cfg runs the adaptive skip, whose verdicts read the clock
    scn = load_scenario(SCENARIOS / "dualflood.cfg")
    want = run_simulation(scn)
    trace, mit = drive_run(scn, RngStream(scn.seed, 0), 0, AdaptiveSkip(scn.beta / scn.alpha))
    for name in ("arrival_ns", "klass", "source_id"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(want.trace, name))
    np.testing.assert_array_equal(mit.outcomes, want.mitigation.outcomes)
    for name in ("time_ns", "kind", "first", "last", "skip"):
        np.testing.assert_array_equal(getattr(mit.events, name),
                                      getattr(want.mitigation.events, name))
    assert want.summary["windows_tested"] == mit.state.windows_tested > 0
    # no policy: the same trace, and no machine
    bare, none = drive_run(scn, RngStream(scn.seed, 0), 0, None)
    assert none is None
    np.testing.assert_array_equal(bare.arrival_ns, want.trace.arrival_ns)


def one_packet_short(trace):
    order = None if trace.order is None else trace.order[:-1]
    return ServerTrace(trace.arrival_ns[:-1], trace.wait_ns[:-1], trace.service_ns[:-1], order)


def one_more_forwarded(result):
    result.state.packets_forwarded += 1
    return result


def last_departs_early(trace):
    dep = trace.departure_ns
    wait = trace.wait_ns.copy()
    wait[-1] -= dep[-1] - dep[-2] + 1  # one ns before the packet served ahead of it
    return ServerTrace(trace.arrival_ns, wait, trace.service_ns, trace.order)


def one_ns_early(emitted):
    return emitted - 1


def one_emission_short(emitted):
    return emitted[:-1]


@pytest.mark.parametrize("stage, corrupt, match", [
    ("simulate_server", one_packet_short, "served packet count diverged"),
    ("run_mitigation", one_more_forwarded, "packet conservation broken"),
    ("simulate_server", last_departs_early, "server departures out of FIFO order"),
    ("forward_times", one_ns_early, "a packet left the shaper before it arrived"),
    ("forward_times", one_emission_short, "shaper exits diverged"),
], ids=["server_one_packet_short", "mitigation_forwarded_off_by_one",
        "server_last_departs_early", "shaper_forwards_1ns_early", "shaper_one_emission_short"])
def test_a_broken_stage_is_an_invariant_violation(stage, corrupt, match, monkeypatch, capsys,
                                                   tmp_path):
    # a run checks the shaper's exit count and that no packet leaves the
    # shaper before it arrives, then the served count, the conservation of
    # packets and FIFO departures after the server: a broken stage is
    # refused, never written out
    real = getattr(pipeline, stage)
    monkeypatch.setattr(pipeline, stage, lambda *args, **kw: corrupt(real(*args, **kw)))
    cfg = SCENARIOS / "dualflood.cfg"
    with pytest.raises(InvariantViolation, match=match):
        run_simulation(load_scenario(cfg))
    assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"invariant violated: {match}")
    assert not (tmp_path / "o").exists()


def order_passes(monkeypatch, scn):
    """Run scn and return the result, every array whose order the run checks
    through any module's is_sorted binding, in call order, and the (entry,
    exits) arrays of each _timeline and _peak call. The run must build one
    departure array, the last one checked."""
    passes, cores = [], []

    def counted(times):
        passes.append(times)
        return is_sorted(times)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("floodsim") and vars(module).get("is_sorted") is is_sorted:
            monkeypatch.setattr(module, "is_sorted", counted)
    for name in ("_timeline", "_peak"):
        core = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda e, x, *a, core=core: cores.append((e, x)) or core(e, x, *a))
    # departure_ns is computed on each read: count the arrays the run builds
    built = []
    departures = ServerTrace.departure_ns
    monkeypatch.setattr(ServerTrace, "departure_ns",
                        property(lambda srv: built.append(departures.fget(srv)) or built[-1]))
    res = run_simulation(scn)
    monkeypatch.undo()
    assert len(built) == 1 and built[0] is passes[-1]
    return res, passes, cores


def each_is(got, want) -> bool:
    """Whether two lists of array tuples hold the same objects."""
    return len(got) == len(want) and all(
        len(g) == len(w) and all(a is b for a, b in zip(g, w)) for g, w in zip(got, want))


def test_a_run_checks_each_arrays_order_once(monkeypatch):
    # benign_monitor's traffic, shortened: the shaper takes the arrivals, and
    # their order, the emissions' and the departures' are each checked once
    res, passes, cores = order_passes(monkeypatch, load_scenario(SCENARIOS / "noflood.cfg"))
    trace, srv = res.trace, res.server
    assert res.summary["packets_dropped"] == 0 < len(srv)
    assert each_is([passes], [(trace.arrival_ns, srv.arrival_ns, passes[2])])
    # one departure array serves the server's timeline, peak and makespan
    np.testing.assert_array_equal(passes[2], srv.departure_ns)
    assert res.summary["makespan_s"] == passes[2][-1] / 1e9
    shaper, server = (trace.arrival_ns, srv.arrival_ns), (srv.arrival_ns, passes[2])
    assert each_is(cores, [shaper, shaper, server, server])

    # with drops the shaper takes the release instants, so the arrivals get a
    # pass of their own, and so do the merged exits
    res, passes, cores = order_passes(monkeypatch, small_mix())
    trace, srv, mit = res.trace, res.server, res.mitigation
    assert res.summary["packets_dropped"] > 0 and len(passes) == 5
    np.testing.assert_array_equal(passes[0], np.sort(mit.release_ns[mit.release_ns >= 0]))
    assert passes[1] is trace.arrival_ns and len(passes[2]) == len(trace)
    assert passes[3] is srv.arrival_ns
    shaper, server = (trace.arrival_ns, passes[2]), (srv.arrival_ns, passes[4])
    assert each_is(cores, [shaper, shaper, server, server])

    # the raw stream: the arrivals, checked by the server, and the departures
    res, passes, cores = order_passes(monkeypatch, small_mix(sqf_enabled=False, aam_enabled=False))
    server = (res.trace.arrival_ns, passes[1])
    assert each_is([passes], [(res.server.arrival_ns, passes[1])])
    assert each_is(cores, [server, server])


@settings(max_examples=20)
@given(kind=st.sampled_from(["shaped", "dropped", "raw"]), seed=st.integers(0, 2**32),
       skip=st.integers(1, 40), sample_dt_s=st.sampled_from([0.001, 0.0137, 0.1]))
def test_the_run_reports_equal_the_checked_public_functions(kind, seed, skip, sample_dt_s):
    # at most ~1 100 packets: 400 benign, and a flood of ~500 over 0.5 s
    scn = small_mix(seed=seed, horizon_s=2.0, sample_dt_s=sample_dt_s,
                    floods=[FloodSpec(start_s=0.5, duration_s=0.5, rate_pps=1000.0)])
    if kind == "dropped":
        scn = dataclasses.replace(scn, skip_mode="fixed", fixed_skip=skip)
    else:
        scn = dataclasses.replace(scn, aam_enabled=False, sqf_enabled=kind == "shaped")
    res = run_simulation(scn)
    srv, summary, dt = res.server, res.summary, to_ns(sample_dt_s)
    assert (summary["packets_dropped"] > 0) == (kind == "dropped")
    if kind == "raw":
        assert res.sqf_timeline is None
    else:
        # the shaper's exits: the forwarded emissions and the drop verdicts
        exits = res.emit_ns[res.emit_ns >= 0]
        if res.mitigation is not None:
            drops = res.mitigation.drop_time_ns
            exits = np.concatenate([exits, drops[drops >= 0]])
        exits = np.sort(exits)
        want = shaping_queue_timeline(res.trace.arrival_ns, exits, dt)
        np.testing.assert_array_equal(res.sqf_timeline, want)
        assert summary["sqf_peak_queue"] == peak_occupancy(res.trace.arrival_ns, exits)
    departures = srv.departure_ns
    np.testing.assert_array_equal(res.server_timeline, srv.queue_timeline(dt))
    assert summary["server_peak_queue"] == peak_occupancy(srv.arrival_ns, departures)
    assert summary["makespan_s"] == int(departures.max(initial=0)) / 1e9
