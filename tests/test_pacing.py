"""Paced forwarding and queue-occupancy timelines.

forward_times is a closed form of the forwarding recursion; the tests hold
it against a naive sequential evaluation, its delays against a literal loop
of the reflected delay recursion (oracles.pacing_delays), the max-plus
kernel behind it against a literal per-element loop, and the timelines
against brute-force occupancy counting.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodsim import ConfigError, RngStream, forward_times, peak_occupancy, to_ns
from floodsim import pacing
from floodsim.pacing import max_plus, queue_timeline, shaping_queue_timeline
from floodsim.traffic import FloodSpec, gen_flood
from oracles import occupancy_at, pacing_delays, reference_peak_occupancy

MS = 1_000_000


def naive_forward(a, gap):
    out = list(a)
    for k in range(1, len(out)):
        out[k] = max(out[k - 1] + gap, out[k])
    return out


def test_single_packet_passes_through():
    np.testing.assert_array_equal(forward_times([to_ns(5.0)], 7), [to_ns(5.0)])
    np.testing.assert_array_equal(forward_times([to_ns(5.0)], 7) - to_ns(5.0), [0])


def test_dense_burst_spreads_at_gap():
    a = [0, 1 * MS, 2 * MS]
    np.testing.assert_array_equal(forward_times(a, 3 * MS), [0, 3 * MS, 6 * MS])
    np.testing.assert_array_equal(forward_times(a, 3 * MS) - a, [0, 2 * MS, 4 * MS])


def test_sparse_arrivals_unshaped():
    a = to_ns(np.array([0.0, 10.0, 20.0]))
    np.testing.assert_array_equal(forward_times(a, 3 * MS), a)


def test_interarrival_at_gap_means_zero_delay():
    a = np.arange(50, dtype=np.int64) * 4 * MS
    np.testing.assert_array_equal(forward_times(a, 4 * MS) - a, np.zeros(50, np.int64))


def test_empty_input():
    assert len(forward_times(np.empty(0, np.int64), 5)) == 0


def test_input_validation():
    with pytest.raises(ValueError):
        forward_times([3, 1], 5)
    with pytest.raises(ValueError):
        forward_times([1, 3], 0)
    with pytest.raises(ValueError):
        forward_times(np.zeros((2, 2), np.int64), 5)


def test_closed_forms_match_naive_recursion():
    rng = np.random.default_rng(50)
    for _ in range(300):
        n = int(rng.integers(1, 120))
        a = np.sort(rng.integers(0, 400 * MS, n)).astype(np.int64)
        gap = int(rng.integers(1, 12 * MS))
        t = forward_times(a, gap)
        np.testing.assert_array_equal(t, naive_forward(a, gap))
        np.testing.assert_array_equal(pacing_delays(a, gap), t - a)


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.integers(min_value=0, max_value=10 * MS), min_size=1, max_size=80),
    gap=st.integers(min_value=1, max_value=5 * MS),
)
def test_pacing_invariants(gaps, gap):
    a = np.cumsum(np.asarray(gaps, np.int64))
    t = forward_times(a, gap)
    assert np.all(t >= a)                      # causality
    if len(t) > 1:
        assert np.all(np.diff(t) >= gap)       # pacing, exact
    np.testing.assert_array_equal(t - a, pacing_delays(a, gap))


def test_burst_drain_staircase():
    # B packets at t=0 drain one per gap: sample at multiples of the gap
    B, gap = 50, 3 * MS
    a = np.zeros(B, np.int64)
    t = forward_times(a, gap)
    times, counts = queue_timeline(a, t, gap)
    k = np.arange(len(times))
    np.testing.assert_array_equal(counts, np.maximum(B - k, 0))
    assert counts[0] == B
    assert counts[-1] == 0


def test_timeline_off_grid_sparse_is_flat_zero():
    # exit == entry, and samples never land on an instant: all zeros
    a = to_ns(0.0005) + np.arange(5, dtype=np.int64) * 10 * MS
    times, counts = shaping_queue_timeline(a, a.copy(), 1 * MS)
    assert np.all(counts == 0)


def test_timeline_counts_departing_packet_at_its_exit():
    times, counts = queue_timeline([0], [2 * MS], 2 * MS)
    # closed convention: the sample at the exit instant still sees the packet
    assert counts[0] == 1 and counts[1] == 1 and counts[-1] == 0


def test_timeline_grid_is_capped_before_it_is_allocated(monkeypatch):
    # the grid runs to the last exit, however far past the horizon that is
    with pytest.raises(ConfigError, match="queue timeline of 1000000000000000002 samples"):
        queue_timeline([0], [10**18], 1)
    monkeypatch.setattr(pacing, "MAX_SAMPLES", 100)
    times, counts = queue_timeline([0], [98], 1)  # 100 samples, the cap
    assert len(times) == 100 and counts[-1] == 0
    with pytest.raises(ConfigError, match="101 samples"):
        queue_timeline([0], [99], 1)
    with pytest.raises(ConfigError):
        shaping_queue_timeline([0], [99], 1)


def test_shaping_timeline_validates_inputs():
    with pytest.raises(ValueError, match="length"):
        shaping_queue_timeline([0, 1], [1], 5)
    with pytest.raises(ValueError, match="precede"):
        shaping_queue_timeline([10], [5], 5)


def test_shaping_timeline_with_held_packets():
    # exits out of seq order (later packets released before earlier ones)
    a = np.array([0, 1, 2, 3], np.int64) * MS
    t = np.array([10, 4, 5, 6], np.int64) * MS
    times, counts = shaping_queue_timeline(a, t, MS)
    expect = [occupancy_at(sorted(a), sorted(t), int(tt)) for tt in times]
    np.testing.assert_array_equal(counts, expect)
    assert counts[-1] == 0
    assert counts.min() >= 0


def test_peak_occupancy_brute_force():
    rng = np.random.default_rng(51)
    for _ in range(80):
        n = int(rng.integers(1, 40))
        entry = rng.integers(0, 200, n)
        exits = entry + rng.integers(0, 60, n)
        peak = peak_occupancy(entry, exits)
        brute = max(occupancy_at(list(entry), list(exits), int(t)) for t in entry)
        assert peak == brute


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 60)), max_size=60))
def test_peak_occupancy_matches_reference(stays):
    # packets in any order, each leaving no earlier than it entered; ties
    # between entries, exits and each other are frequent on this range
    entry = [e for e, _ in stays]
    exits = [e + d for e, d in stays]
    peak = peak_occupancy(entry, exits)
    assert peak == reference_peak_occupancy(entry, exits)
    assert peak == max((occupancy_at(entry, exits, t) for t in entry), default=0)


def test_peak_occupancy_counts_exit_instant():
    # one leaves exactly when the other enters: both present at that instant
    assert peak_occupancy([0, 5], [5, 9]) == 2
    assert peak_occupancy([], []) == 0


def test_flood_backlog_matches_fluid_limit():
    # sustained overload: peak backlog ~ X - duration/gap
    spec = FloodSpec(start_s=0.0, duration_s=60.0, rate_pps=6667.0)
    tr = gen_flood(spec, RngStream(52, 0))
    gap = 3 * MS
    t = forward_times(tr.arrival_ns, gap)
    peak = peak_occupancy(tr.arrival_ns, t)
    predicted = len(tr) - to_ns(60.0) // gap
    assert abs(peak - predicted) / predicted < 0.05


def max_plus_loop(ready, work, floor):
    """s_k = max(ready_k, s_{k-1} + work_k), one element at a time; the first
    element waits for floor + work_0 when a floor is given."""
    out = []
    for k, r in enumerate(ready):
        if k == 0:
            s = r if floor is None else max(r, floor + work[0])
        else:
            s = max(r, s + work[k])
        out.append(s)
    return out


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(0, 10**15),  # ready time; a small range below makes ties
            st.one_of(st.just(0), st.integers(0, 20), st.integers(0, 10**15)),
        ),
        min_size=1,
        max_size=60,
    ),
    tied=st.booleans(),
    floor=st.one_of(st.none(), st.integers(-(10**15), 10**15)),
)
def test_max_plus_matches_literal_loop(steps, tied, floor):
    ready = np.array([r % 8 if tied else r for r, _ in steps], np.int64)
    work = np.array([w for _, w in steps], np.int64)
    got = max_plus(ready, np.cumsum(work), floor)
    np.testing.assert_array_equal(got, max_plus_loop(ready.tolist(), work.tolist(), floor))
