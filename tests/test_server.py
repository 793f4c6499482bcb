"""FCFS waiting times and the regime-switching server simulation."""
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodsim import (
    NORMAL_ALWAYS,
    RngStream,
    ServiceTimeModel,
    forward_times,
    peak_occupancy,
    simulate_server,
    to_ns,
)
from floodsim.model import BLOCK, CLOCK_NS, ConfigError, InvariantViolation, Regime
from floodsim.pipeline import run_simulation
from floodsim.scenario import parse_scenario
from floodsim import server
from floodsim.server import _SLACK, RegimeSchedule, write_server_trace_csv
from floodsim.traffic import FloodSpec, gen_flood
from oracles import fcfs_waits_event_driven, lindley_waits, reference_simulate_server

MS = 1_000_000
S = 1_000_000_000


def test_idle_server_no_waits():
    np.testing.assert_array_equal(lindley_waits([0, 10 * S], [1 * S, 1 * S]), [0, 0])


def test_backlog_accumulates():
    waits = lindley_waits(to_ns([0.0, 1.0, 2.0]), to_ns([3.0, 3.0, 3.0]))
    np.testing.assert_array_equal(waits, to_ns([0.0, 2.0, 4.0]))


def test_critical_pacing_zero_waits():
    a = np.arange(100, dtype=np.int64) * 7 * MS
    t = np.full(100, 7 * MS, np.int64)
    assert lindley_waits(a, t).max() == 0


def test_lindley_validation():
    with pytest.raises(ValueError):
        lindley_waits([0, 1], [1])
    with pytest.raises(ValueError):
        lindley_waits([2, 1], [1, 1])
    with pytest.raises(ValueError):
        lindley_waits([0, 1], [1, -1])
    assert len(lindley_waits(np.empty(0, np.int64), np.empty(0, np.int64))) == 0


def test_lindley_matches_event_simulation():
    rng = np.random.default_rng(60)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        a = np.sort(rng.integers(0, 50 * MS, n)).astype(np.int64)
        t = rng.integers(0, 5 * MS, n).astype(np.int64)
        np.testing.assert_array_equal(lindley_waits(a, t), fcfs_waits_event_driven(a, t))


@settings(max_examples=60)
@given(
    gaps=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60),
    services=st.lists(st.integers(min_value=0, max_value=1500), min_size=60, max_size=60),
)
def test_lindley_vs_event_oracle_property(gaps, services):
    a = np.cumsum(np.asarray(gaps, np.int64))
    t = np.asarray(services[: len(a)], np.int64)
    np.testing.assert_array_equal(lindley_waits(a, t), fcfs_waits_event_driven(a, t))


def test_wait_bound_behind_pacer():
    # arrivals spaced >= gap imply w[n+1] <= max(0, w[n] + t[n] - gap)
    rng = np.random.default_rng(61)
    gap = 3 * MS
    a = forward_times(np.sort(rng.integers(0, S, 400)).astype(np.int64), gap)
    t = rng.integers(0, 6 * MS, 400).astype(np.int64)
    w = lindley_waits(a, t)
    bound = np.maximum(0, w[:-1] + t[:-1] - gap)
    assert np.all(w[1:] <= bound)


def test_single_slower_service_never_helps_later_packets():
    rng = np.random.default_rng(62)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        a = np.sort(rng.integers(0, 40 * MS, n)).astype(np.int64)
        t = rng.integers(0, 4 * MS, n).astype(np.int64)
        base = lindley_waits(a, t)
        k = int(rng.integers(0, n))
        t2 = t.copy()
        t2[k] += int(rng.integers(1, 3 * MS))
        bumped = lindley_waits(a, t2)
        assert np.all(bumped >= base)
        np.testing.assert_array_equal(bumped[: k + 1], base[: k + 1])


def test_regime_schedule_merges_overlaps():
    sched = RegimeSchedule([(0, 10), (5, 20), (30, 40)])
    assert sched.attack_windows_ns == [(0, 20), (30, 40)]
    with pytest.raises(ValueError):
        RegimeSchedule([(5, 5)])
    assert RegimeSchedule([(np.int64(5), 7)]).attack_windows_ns == [(5, 7)]


@pytest.mark.parametrize("window", [(0.5, 1.5), (0.2, 0.9), (0, 2.0)])
def test_regime_schedule_refuses_float_bounds(window):
    # seconds would truncate: (0.5, 1.5) to (0, 1), (0.2, 0.9) to an empty window
    with pytest.raises(ValueError, match="to_ns"):
        RegimeSchedule([window])


def test_regime_schedule_boundaries_half_open():
    sched = RegimeSchedule([(10, 20)])
    np.testing.assert_array_equal(sched.in_attack([9, 10, 19, 20]), [False, True, True, False])
    assert sched.in_attack(10) and not sched.in_attack(20)
    assert sched.next_boundary(5) == 10
    assert sched.next_boundary(10) == 20
    assert sched.next_boundary(20) == CLOCK_NS
    assert not NORMAL_ALWAYS.in_attack(123)
    assert NORMAL_ALWAYS.next_boundary(0) == CLOCK_NS


def test_simulate_server_spaced_arrivals_zero_waits():
    model = ServiceTimeModel(var_normal_s2=0.0)
    a = np.arange(200, dtype=np.int64) * 5 * MS  # gap > mean service
    out = simulate_server(a, model, NORMAL_ALWAYS, RngStream(63, 0))
    assert out.wait_ns.max() == 0
    np.testing.assert_array_equal(out.service_ns, np.full(200, to_ns(model.mean_normal_s)))
    assert np.all(np.diff(out.departure_ns) >= 0)
    # computed on each read, not cached on the trace
    np.testing.assert_array_equal(out.departure_ns, out.arrival_ns + out.wait_ns + out.service_ns)
    assert out.departure_ns is not out.departure_ns
    assert "departure_ns" not in vars(out)


def test_simulate_server_empty_and_validation():
    model = ServiceTimeModel()
    out = simulate_server(np.empty(0, np.int64), model, NORMAL_ALWAYS, RngStream(1, 0))
    assert len(out) == 0
    with pytest.raises(ValueError):
        simulate_server(np.array([5, 1]), model, NORMAL_ALWAYS, RngStream(1, 0))
    # float seconds would all truncate to a start at 0
    with pytest.raises(ValueError, match="to_ns"):
        simulate_server(np.array([0.001, 0.004]), model, NORMAL_ALWAYS, RngStream(1, 0))


@pytest.mark.parametrize(
    "arrivals, seq",
    [
        (np.arange(5), [7, 8]),
        (np.arange(5), np.zeros((5, 2))),
        (np.arange(5), 3),
        (np.arange(5).reshape(5, 1), None),
        (np.arange(6).reshape(2, 3), None),
    ],
    ids=["short-seq", "2d-seq", "scalar-seq", "column-arrivals", "2d-arrivals"],
)
def test_simulate_server_refuses_misshapen_inputs(arrivals, seq):
    with pytest.raises(ValueError, match="1-d"):
        simulate_server(arrivals, ServiceTimeModel(), NORMAL_ALWAYS, RngStream(1, 0), seq=seq)


def test_in_order_serve_holds_no_seq_array(tmp_path):
    a = np.arange(0, 50 * 10**6, 10**6)
    served = simulate_server(a, ServiceTimeModel(), NORMAL_ALWAYS, RngStream(1, 0))
    assert "seq" not in vars(served) and served.order is None
    np.testing.assert_array_equal(served.seq, np.arange(50))
    assert served.seq.dtype == np.int64
    picked = np.arange(100, 150)
    given_seq = simulate_server(a, ServiceTimeModel(), NORMAL_ALWAYS, RngStream(1, 0), seq=picked)
    np.testing.assert_array_equal(given_seq.seq, picked)
    # the writer's seq column is the same either way
    write_server_trace_csv(tmp_path / "in_order.csv", served)
    write_server_trace_csv(tmp_path / "given.csv", dataclasses.replace(served, order=np.arange(50)))
    assert (tmp_path / "in_order.csv").read_bytes() == (tmp_path / "given.csv").read_bytes()


def server_writer_peak(path, blocks: int) -> int:
    """tracemalloc peak, in bytes, of write_server_trace_csv on a trace of
    whole blocks whose fields keep their widths however long it is."""
    n = blocks * BLOCK
    rng = np.random.default_rng(blocks)
    arrival = 10**11 + np.cumsum(rng.integers(0, 3 * 10**5, n))  # 100-180 s
    trace = server.ServerTrace(arrival, rng.integers(0, 10**8, n), rng.integers(10**6, 10**7, n))
    tracemalloc.start()
    try:
        write_server_trace_csv(path, trace)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_server_trace_writer_holds_no_departure_array(tmp_path):
    # an n-long departure array would add 8 B a row: 1.5 MB between these
    short, long = (server_writer_peak(tmp_path / f"{b}.csv", b) for b in (4, 16))
    assert abs(long - short) <= 0.05 * short


def test_summed_service_beyond_the_clock_is_a_config_error():
    # 10^6 s per packet: 9 000 packets end before the 9.2e9 s clock limit,
    # 9 210 pass it within int64, and 10 000 pass 2**63 ns, which int64 sums
    # used to wrap silently
    model = ServiceTimeModel(mean_normal_s=1e6, var_normal_s2=0.0)
    fits = simulate_server(np.zeros(9_000, np.int64), model, NORMAL_ALWAYS, RngStream(1, 0))
    assert np.all(np.diff(fits.departure_ns) > 0)
    assert fits.departure_ns[-1] == 9_000 * 10**15
    for n in (9_210, 10_000):
        with pytest.raises(ConfigError, match="beyond the clock"):
            simulate_server(np.zeros(n, np.int64), model, NORMAL_ALWAYS, RngStream(1, 0))
    # a late arrival counts too: last departures at 9.185e18 and 9.205e18 ns
    late = ServiceTimeModel(mean_normal_s=1e7, var_normal_s2=0.0)
    simulate_server(np.array([0, 9_175 * 10**15]), late, NORMAL_ALWAYS, RngStream(1, 0))
    with pytest.raises(ConfigError, match="beyond the clock"):
        simulate_server(np.array([0, 9_195 * 10**15]), late, NORMAL_ALWAYS, RngStream(1, 0))
    # as does an arrival at the clock, past the last boundary or before one
    for sched in (NORMAL_ALWAYS, RegimeSchedule([(0, 10)]), RegimeSchedule([(0, 2**63 - 1)])):
        with pytest.raises(ConfigError, match="an arrival at or past the nanosecond clock"):
            simulate_server(np.array([0, CLOCK_NS]), late, sched, RngStream(1, 0))
    # and in a later regime chunk: 10^8 s flood-regime services from 5 s on
    # (packet 500), with no numpy warning on the way. Under a window to
    # 9.15e9 s the chunk keeps 92 of them, the last starting at 9.1e9 + 5 s
    # and departing at 9.2e9 + 5 s, past the clock
    a = np.arange(3_000, dtype=np.int64) * 10 * MS
    slow = ServiceTimeModel(mean_attack_s=1e8, var_attack_s2=0.0, outlier_prob=0.0)
    with pytest.raises(ConfigError, match="beyond the clock"), warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_server(a, slow, RegimeSchedule([(5 * S, 9_150_000_000 * S)]), RngStream(1, 0))
    # under a window that ends at 6 s the chunk keeps one of them, and no
    # packet served departs past the clock: 10^8 s services were once refused
    # by a check over 1 024 candidates, the 16 candidates of 10^9 s ones sum
    # past the clock from the tenth on, where the walk cuts its span, and the
    # oracle's sums of the 2 500 services of 5e9 s each once wrapped in int64
    for mean_s in (1e8, 1e9, 5e9):
        one = ServiceTimeModel(mean_attack_s=mean_s, var_attack_s2=0.0, outlier_prob=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_as_reference(a, one, [(5 * S, 6 * S)], 1)
            served = simulate_server(a, one, RegimeSchedule([(5 * S, 6 * S)]), RngStream(1, 0))
        assert served.departure_ns.max() == int(mean_s) * S + 12_447_922_568


def test_attack_regime_draws_beyond_the_clock_are_a_config_error():
    # once the attack regime is entered every packet's attack-regime service
    # is drawn, also where the packet is served in the normal regime: under a
    # 1 ms window only packet 0 is served in it, and draws no outlier, while
    # about half of the others draw one of 4.82e10 s, past the clock
    n = 1_000
    a = np.arange(n, dtype=np.int64) * MS
    model = ServiceTimeModel(outlier_prob=0.5, outlier_scale=1e13)
    g = RngStream(2, 0).generator
    g.standard_normal(n)
    u = g.random(n)
    assert u[0] >= 0.5 and u.min() < 0.5
    simulate_server(a, model, NORMAL_ALWAYS, RngStream(2, 0))  # draws no attack service
    with pytest.raises(ConfigError, match="give times beyond the clock"):
        simulate_server(a, model, RegimeSchedule([(0, MS)]), RngStream(2, 0))


def test_empty_regime_chunk_is_an_invariant_violation(monkeypatch):
    # a boundary at the chunk's own start instant leaves the chunk empty
    monkeypatch.setattr(RegimeSchedule, "next_boundary", lambda self, t_ns: t_ns)
    sched = RegimeSchedule([(10 * MS, 20 * MS)])
    for serve in (simulate_server, reference_simulate_server):
        with pytest.raises(InvariantViolation, match="empty"):
            serve(np.arange(5, dtype=np.int64) * MS, ServiceTimeModel(), sched, RngStream(1, 0))


def test_regime_switch_changes_service_means():
    model = ServiceTimeModel(outlier_prob=0.0)
    sched = RegimeSchedule([(to_ns(1.0), to_ns(2.0))])
    a = np.arange(600, dtype=np.int64) * 5 * MS  # light load: starts ~ arrivals
    out = simulate_server(a, model, sched, RngStream(64, 0))
    starts = out.arrival_ns + out.wait_ns
    inside = (starts >= to_ns(1.0)) & (starts < to_ns(2.0))
    mean_in = out.service_ns[inside].mean() / 1e9
    mean_out = out.service_ns[~inside].mean() / 1e9
    assert abs(mean_in - model.mean_attack_s) < 3 * np.sqrt(model.var_attack_s2 / inside.sum())
    assert abs(mean_out - model.mean_normal_s) < 3 * np.sqrt(model.var_normal_s2 / (~inside).sum())


def test_chunked_walk_consistent_across_boundaries():
    # both regimes identical: schedule boundaries must not affect the samples
    model = ServiceTimeModel(
        mean_attack_s=ServiceTimeModel().mean_normal_s,
        var_attack_s2=ServiceTimeModel().var_normal_s2,
        outlier_prob=0.0,
    )
    a = np.arange(500, dtype=np.int64) * 2 * MS
    sched = RegimeSchedule([(to_ns(0.2), to_ns(0.4)), (to_ns(0.6), to_ns(0.7))])
    chunked = simulate_server(a, model, sched, RngStream(65, 0))
    flat = simulate_server(a, model, NORMAL_ALWAYS, RngStream(65, 0))
    np.testing.assert_array_equal(chunked.wait_ns, flat.wait_ns)
    np.testing.assert_array_equal(chunked.service_ns, flat.service_ns)


def test_unshaped_flood_backlog_and_slow_drain():
    # overload: nearly every flood packet is still queued when the flood ends,
    # and serving the backlog takes far longer than the flood itself
    spec = FloodSpec(start_s=0.0, duration_s=20.0, rate_pps=6667.0)
    tr = gen_flood(spec, RngStream(67, 0))
    sched = RegimeSchedule([(to_ns(0.0), to_ns(20.0))])
    out = simulate_server(tr.arrival_ns, ServiceTimeModel(), sched, RngStream(67, 1))
    peak = peak_occupancy(out.arrival_ns, out.departure_ns)
    assert abs(peak - len(tr)) / len(tr) < 0.02
    assert out.departure_ns.max() > 5 * to_ns(20.0)


class CountingSchedule(RegimeSchedule):
    """A RegimeSchedule that counts next_boundary calls: one per chunk."""

    calls = 0

    def next_boundary(self, t_ns):
        self.calls += 1
        return super().next_boundary(t_ns)


def assert_same_as_reference(arrivals, model, windows, seed):
    got_sched, want_sched = CountingSchedule(windows), CountingSchedule(windows)
    got = simulate_server(arrivals, model, got_sched, RngStream(seed, 0))
    want = reference_simulate_server(arrivals, model, want_sched, RngStream(seed, 0))
    for field in ("seq", "arrival_ns", "wait_ns", "service_ns"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert got_sched.calls == want_sched.calls
    return got_sched.calls


# a first span sized from the regime mean about right, far too short
# (services clipped to 2 ms or less, far below the 50 ms mean, so a
# backlogged chunk outlives its first span and doubles) and far too long
# (nearly every flood-regime service is an outlier of ~4.8 s); under "coin"
# half the flood-regime services are outliers, so each packet's own uniform
# shows in its service
MODELS = {
    "default": ServiceTimeModel(),
    "undershoot": ServiceTimeModel(
        mean_normal_s=0.05, var_normal_s2=0.0025, mean_attack_s=0.05, var_attack_s2=0.0025,
        ceiling_s=2e-3,
    ),
    "overshoot": ServiceTimeModel(outlier_prob=0.99),
    "coin": ServiceTimeModel(outlier_prob=0.5, outlier_scale=3.0),
}


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 4000),
    n_windows=st.integers(0, 8),
    model=st.sampled_from(sorted(MODELS)),
)
def test_simulate_server_matches_reference_loop(seed, n, n_windows, model):
    # bursty arrivals under random attack windows: backlogs carry waits
    # across regime boundaries
    rng = np.random.default_rng(seed)
    gaps = rng.choice([0, 100_000, MS, 5 * MS, 20 * MS], n)
    a = np.cumsum(gaps).astype(np.int64)
    end = int(a[-1]) + 1 if n else 1
    cuts = np.sort(rng.integers(0, 2 * end, 2 * n_windows))
    windows = [(s, e) for s, e in zip(cuts[0::2], cuts[1::2]) if e > s]
    assert_same_as_reference(a, MODELS[model], windows, seed)


# Under 1 000 s means clipped to 5 ms services, a bounded chunk's estimate is
# under one packet, so its first span holds _SLACK packets and its spans end
# at 16, 48, 112, ..., 16 368 and 32 752 packets: the first span, nine
# doublings and a span capped at one block. Under the default means the
# first span holds the whole chunk, up to one block.
SPAN_ENDS = [*np.cumsum([min(BLOCK, _SLACK << k) for k in range(11)]), BLOCK, 2 * BLOCK]
SPAN_EDGES = [1, 2] + [int(end) + d for end in SPAN_ENDS for d in (-1, 0, 1)]
SPAN_MODELS = {
    "doubling": ServiceTimeModel(
        mean_normal_s=1e3, mean_attack_s=1e3, outlier_prob=0.0, ceiling_s=5e-3
    ),
    "estimate": ServiceTimeModel(outlier_prob=0.0, ceiling_s=5e-3),
}


@settings(max_examples=40)
@given(
    lengths=st.lists(st.sampled_from(SPAN_EDGES) | st.integers(1, 5000), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(sorted(SPAN_MODELS)),
)
def test_chunk_lengths_around_span_doubling(lengths, seed, model):
    # services stay under the 10 ms gap, so every start is its arrival and
    # a boundary at packet k's arrival ends a chunk exactly before it
    n = sum(lengths)
    a = np.arange(n, dtype=np.int64) * 10 * MS
    bounds = [int(b) for b in a[np.cumsum(lengths)[:-1]]]
    if len(bounds) % 2:
        bounds.append(n * 10 * MS)
    windows = list(zip(bounds[0::2], bounds[1::2]))
    assert assert_same_as_reference(a, SPAN_MODELS[model], windows, seed) == len(lengths)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    slack=st.integers(1, 3),
    block=st.integers(1, 8),
    blocks=st.integers(0, 40),
    extra=st.integers(-1, 1),
    n_windows=st.integers(0, 3),
    model=st.sampled_from(sorted(MODELS)),
)
def test_open_span_walk_matches_reference(seed, slack, block, blocks, extra, n_windows, model):
    # a slack of 1-3 packets and blocks of 1-8, streams of about a whole
    # number of blocks: every chunk's first span, its doublings, the cap at
    # one block and the blocks of normal-regime draws fall inside the
    # stream, and a backlog carries its wait across every span edge
    n = max(0, block * blocks + extra)
    rng = np.random.default_rng(seed)
    a = np.cumsum(rng.choice([0, 100_000, MS, 5 * MS], n)).astype(np.int64)
    end = int(a[-1]) + 1 if n else 1
    cuts = np.sort(rng.integers(0, end, 2 * n_windows))
    windows = [(s, e) for s, e in zip(cuts[0::2], cuts[1::2]) if e > s]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server, "_SLACK", slack)
        mp.setattr(server, "BLOCK", block)
        assert_same_as_reference(a, MODELS[model], windows, seed)


@pytest.mark.parametrize(
    "windows, uniforms",
    [([], False), ([(10 * S, 11 * S)], False), ([(0, MS)], True), ([(50 * MS, 60 * MS)], True)],
    ids=["no-windows", "window-after-stream", "window-at-start", "window-inside"],
)
def test_uniforms_are_drawn_only_for_the_attack_regime(windows, uniforms):
    # 1 000 packets over 1 s: a run with no attack-regime chunk leaves the
    # service stream where the n normals alone would, one with such a chunk
    # where n normals and then n uniforms would
    n = 1_000
    a = np.arange(n, dtype=np.int64) * MS
    rng = RngStream(66, 0)
    simulate_server(a, ServiceTimeModel(), RegimeSchedule(windows), rng)
    want = RngStream(66, 0).generator
    want.standard_normal(n)
    if uniforms:
        want.random(n)
    assert rng.generator.bit_generator.state == want.bit_generator.state


@pytest.fixture
def work(monkeypatch):
    """Service times drawn in each regime and the draw_ns calls that drew
    them, packets solved (max_plus lengths), and the longest draw or solve,
    over a run."""
    counts = {Regime.NORMAL: 0, Regime.ATTACK: 0, "solved": 0, "longest": 0}
    counts.update({(regime, "calls"): 0 for regime in Regime})
    draw_ns, solve = ServiceTimeModel.draw_ns, server.max_plus

    def counting_draw(self, regime, z, u):
        counts[regime] += len(z)
        counts[regime, "calls"] += 1
        counts["longest"] = max(counts["longest"], len(z))
        return draw_ns(self, regime, z, u)

    def counting_solve(ready, work_sum, floor=None):
        counts["solved"] += len(ready)
        counts["longest"] = max(counts["longest"], len(ready))
        return solve(ready, work_sum, floor)

    monkeypatch.setattr(ServiceTimeModel, "draw_ns", counting_draw)
    monkeypatch.setattr(server, "max_plus", counting_solve)
    return counts


def assert_each_service_drawn_once(work, n):
    # both regimes are entered: each draws every packet's service once, a
    # block at a time, and no span draws its own
    for regime in Regime:
        assert work[regime] == n
        assert work[regime, "calls"] <= -(-n // BLOCK)


def test_server_work_is_linear_in_the_stream(work):
    # 100 short floods served raw: the regime switches ~150 times, yet each
    # packet's service in each regime is drawn once and the walk solves about
    # one service time per packet (first spans of 1 024 packets per chunk
    # drew 1.55 normal ones and solved 2.31 per packet)
    lines = ["benign.period_s = 0.01", "sqf.enabled = false", "aam.enabled = false",
             "run.seed = 1", "run.horizon_s = 101"]
    for k in range(1, 101):
        lines += [f"flood.{k}.start_s = {k}", f"flood.{k}.duration_s = 0.3",
                  f"flood.{k}.rate_pps = 3000"]
    res = run_simulation(parse_scenario("\n".join(lines)))
    n = len(res.server)
    assert_each_service_drawn_once(work, n)
    assert work["solved"] <= 1.2 * n


def test_long_chunks_draw_each_service_once(work):
    # two 80 s floods served raw, each one flood-regime chunk of ~120 000
    # packets: the walk solves no span longer than one block (a candidate
    # span doubled until it held the whole chunk drew 2.64 service times per
    # packet, in spans of 131 072)
    lines = ["sqf.enabled = false", "aam.enabled = false", "run.seed = 1",
             "run.horizon_s = 200", "service.mean_attack_ms = 0.5",
             "service.var_attack_ms2 = 0.0001"]
    for k, start in enumerate((10, 100), 1):
        lines += [f"flood.{k}.start_s = {start}", f"flood.{k}.duration_s = 80",
                  f"flood.{k}.rate_pps = 1500"]
    res = run_simulation(parse_scenario("\n".join(lines)))
    n = len(res.server)
    assert n > 250_000
    assert work["longest"] <= BLOCK
    assert_each_service_drawn_once(work, n)
    assert work["solved"] <= 1.2 * n
