"""FCFS waiting times and the regime-switching server simulation."""
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
from floodsim.model import ConfigError, InvariantViolation
from floodsim.pipeline import run_simulation
from floodsim.scenario import parse_scenario
from floodsim.server import _FIRST_SPAN, RegimeSchedule
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


@settings(max_examples=60, deadline=None)
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


def test_regime_schedule_boundaries_half_open():
    sched = RegimeSchedule([(10, 20)])
    np.testing.assert_array_equal(sched.in_attack([9, 10, 19, 20]), [False, True, True, False])
    assert sched.in_attack(10) and not sched.in_attack(20)
    assert sched.next_boundary(5) == 10
    assert sched.next_boundary(10) == 20
    assert sched.next_boundary(20) is None
    assert not NORMAL_ALWAYS.in_attack(123)
    assert NORMAL_ALWAYS.next_boundary(0) is None


def test_simulate_server_spaced_arrivals_zero_waits():
    model = ServiceTimeModel(var_normal_s2=0.0)
    a = np.arange(200, dtype=np.int64) * 5 * MS  # gap > mean service
    out = simulate_server(a, model, NORMAL_ALWAYS, RngStream(63, 0))
    assert out.wait_ns.max() == 0
    np.testing.assert_array_equal(out.service_ns, np.full(200, to_ns(model.mean_normal_s)))
    assert np.all(np.diff(out.departure_ns) >= 0)
    # built once, then shared by every reader
    assert out.departure_ns is out.departure_ns
    np.testing.assert_array_equal(out.departure_ns, out.arrival_ns + out.wait_ns + out.service_ns)


def test_simulate_server_empty_and_validation():
    model = ServiceTimeModel()
    out = simulate_server(np.empty(0, np.int64), model, NORMAL_ALWAYS, RngStream(1, 0))
    assert len(out) == 0
    with pytest.raises(ValueError):
        simulate_server(np.array([5, 1]), model, NORMAL_ALWAYS, RngStream(1, 0))


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
    # and in a later regime chunk: 10^8 s flood-regime services from 5 s on,
    # with no numpy warning on the way
    sched = RegimeSchedule([(5 * S, 6 * S)])
    a = np.arange(3_000, dtype=np.int64) * 10 * MS
    slow = ServiceTimeModel(mean_attack_s=1e8, var_attack_s2=0.0, outlier_prob=0.0)
    with pytest.raises(ConfigError, match="beyond the clock"), warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_server(a, slow, sched, RngStream(1, 0))


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 4000),
    n_windows=st.integers(0, 8),
)
def test_simulate_server_matches_reference_loop(seed, n, n_windows):
    # bursty arrivals under random attack windows: backlogs carry waits
    # across regime boundaries
    rng = np.random.default_rng(seed)
    gaps = rng.choice([0, 100_000, MS, 5 * MS, 20 * MS], n)
    a = np.cumsum(gaps).astype(np.int64)
    end = int(a[-1]) + 1 if n else 1
    cuts = np.sort(rng.integers(0, 2 * end, 2 * n_windows))
    windows = [(s, e) for s, e in zip(cuts[0::2], cuts[1::2]) if e > s]
    assert_same_as_reference(a, ServiceTimeModel(), windows, seed)


SPAN_EDGES = [1, 2] + [k * _FIRST_SPAN + d for k in (1, 2, 4) for d in (-1, 0, 1)]


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.sampled_from(SPAN_EDGES) | st.integers(1, 5000), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunk_lengths_around_span_doubling(lengths, seed):
    # services stay under the 10 ms gap, so every start is its arrival and
    # a boundary at packet k's arrival ends a chunk exactly before it
    n = sum(lengths)
    a = np.arange(n, dtype=np.int64) * 10 * MS
    model = ServiceTimeModel(outlier_prob=0.0, ceiling_s=5e-3)
    bounds = [int(b) for b in a[np.cumsum(lengths)[:-1]]]
    if len(bounds) % 2:
        bounds.append(n * 10 * MS)
    windows = list(zip(bounds[0::2], bounds[1::2]))
    assert assert_same_as_reference(a, model, windows, seed) == len(lengths)


def test_server_work_is_linear_in_the_stream(monkeypatch):
    # 100 short floods served raw: the regime switches ~150 times, and the
    # service times drawn over all chunks must stay within a few per packet
    drawn = []
    draw_ns = ServiceTimeModel.draw_ns

    def counting_draw(self, regime, z, u):
        drawn.append(len(z))
        return draw_ns(self, regime, z, u)

    monkeypatch.setattr(ServiceTimeModel, "draw_ns", counting_draw)
    lines = ["benign.period_s = 0.01", "sqf.enabled = false", "aam.enabled = false",
             "run.seed = 1", "run.horizon_s = 101"]
    for k in range(1, 101):
        lines += [f"flood.{k}.start_s = {k}", f"flood.{k}.duration_s = 0.3",
                  f"flood.{k}.rate_pps = 3000"]
    res = run_simulation(parse_scenario("\n".join(lines)))
    n = len(res.server)
    assert len(drawn) > 100  # at least one draw per chunk
    assert sum(drawn) <= 4 * n
