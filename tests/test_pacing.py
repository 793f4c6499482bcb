"""Paced forwarding and queue-occupancy timelines.

forward_times is a closed form of the forwarding recursion; the tests hold
it against a naive sequential evaluation, its delays against a literal loop
of the reflected delay recursion (oracles.pacing_delays), the max-plus
kernel behind it against a literal per-element loop, and the timelines
against brute-force occupancy counting.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodsim import ConfigError, RngStream, forward_times, peak_occupancy, to_ns, to_seconds
from floodsim import pacing
from floodsim.detector import DetectorModel
from floodsim.mitigation import FixedSkip, run_mitigation
from floodsim.model import CLOCK_NS, Trace
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
    assert len(forward_times([], 5)) == 0


def test_input_validation():
    with pytest.raises(ValueError):
        forward_times([3, 1], 5)
    with pytest.raises(ValueError):
        forward_times([1, 3], 0)
    with pytest.raises(ValueError):
        forward_times(np.zeros((2, 2), np.int64), 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: forward_times([0.001, 0.002, 0.0035], 3 * MS),
        lambda: forward_times(np.array([0.0, 1.0]), 3 * MS),
        lambda: queue_timeline([0.5], [1], 1),
        lambda: shaping_queue_timeline([0], [True], 1),
        lambda: peak_occupancy([0], [1.5]),
        lambda: Trace([0.5, 1.7], [0, 0], [0, 0]),
        lambda: forward_times([0, 0, 0], 1.5),
        lambda: queue_timeline([0, 3], [4, 9], 2.5),
        lambda: run_mitigation(Trace([0, 1], [0, 0], [0, 0]), DetectorModel(window=2),
                               FixedSkip(1), labels=[0, 0], test_pacing_ns=2.5),
        lambda: to_seconds(2.5),
    ],
    ids=["float-list", "whole-floats", "float-entry", "bool-exit", "float-exit", "float-trace",
         "float-gap", "float-sample-step", "float-verdict-pacing", "float-to-seconds"],
)
def test_nanosecond_inputs_must_be_integers(call):
    # float seconds would truncate to a whole nanosecond; the error names to_ns
    with pytest.raises(ValueError, match="to_ns"):
        call()


def test_queue_timeline_refuses_unsorted_inputs():
    for entry, exits in (([5, 1], [6, 7]), ([1, 5], [6, 2])):
        with pytest.raises(ValueError, match="sorted"):
            queue_timeline(entry, exits, 1)


def test_closed_forms_match_naive_recursion():
    rng = np.random.default_rng(50)
    for _ in range(300):
        n = int(rng.integers(1, 120))
        a = np.sort(rng.integers(0, 400 * MS, n)).astype(np.int64)
        gap = int(rng.integers(1, 12 * MS))
        t = forward_times(a, gap)
        np.testing.assert_array_equal(t, naive_forward(a, gap))
        np.testing.assert_array_equal(pacing_delays(a, gap), t - a)


@settings(max_examples=60)
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


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 60)), max_size=60))
def test_peak_occupancy_matches_reference(stays):
    # packets in any order, each leaving no earlier than it entered; ties
    # between entries, exits and each other are frequent on this range
    entry = [e for e, _ in stays]
    exits = [e + d for e, d in stays]
    peak = peak_occupancy(entry, exits)
    assert peak == reference_peak_occupancy(entry, exits)
    assert peak == max((occupancy_at(entry, exits, t) for t in entry), default=0)


def counting_passes(mp) -> list:
    """Record the order-statistic passes peak_occupancy makes."""
    passes, test = [], pacing._exceeds
    mp.setattr(pacing, "_exceeds", lambda e, x, p: passes.append(p) or test(e, x, p))
    return passes


def max_passes(stride: int) -> int:
    return 2 * math.ceil(math.log2(stride)) + 1


@settings(max_examples=300)
@given(
    stays=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 12)), max_size=40),
    ties=st.lists(st.tuples(st.integers(3, 30), st.integers(2, 6), st.integers(0, 3)), max_size=3),
    block=st.integers(1, 4),
    stride=st.integers(1, 5),
    presorted=st.booleans(),
)
def test_peak_occupancy_across_blocks_matches_reference(stays, ties, block, stride, presorted):
    # blocks of 1-4 entries: block edges fall between and inside groups of
    # equal entries, and the exits before a block's first entry are many.
    # Each tie (t, c, d) adds c packets that enter and leave at t and c that
    # enter d ns earlier and leave at t, so a group of equal entries and
    # exits longer than a block straddles a block cut. Samples every 1-5
    # entries put the bracket's edges, and the gallop's and bisection's
    # probes, at every place in these small streams
    stays = stays + [stay for t, c, d in ties for stay in [(t, 0)] * c + [(t - d, d)] * c]
    entry = np.array([e for e, _ in stays], np.int64)
    exits = np.array([e + d for e, d in stays], np.int64)
    if presorted:
        entry, exits = np.sort(entry), np.sort(exits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pacing, "BLOCK", block)
        mp.setattr(pacing, "_STRIDE", stride)
        passes = counting_passes(mp)
        assert peak_occupancy(entry, exits) == reference_peak_occupancy(entry, exits)
    assert len(passes) <= max_passes(stride)


@settings(max_examples=300)
@given(
    stays=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 12), st.booleans()), min_size=1, max_size=40
    ),
    block=st.integers(1, 4),
    stride=st.integers(1, 5),
)
def test_peak_occupancy_with_packets_still_inside_matches_reference(stays, block, stride):
    # the first packet, and each one drawn False, never leaves: the exits
    # are a strict subset of the stays, as when a run ends with a backlog
    entry = [e for e, _, _ in stays]
    exits = [e + d for e, d, leaves in stays[1:] if leaves]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pacing, "BLOCK", block)
        mp.setattr(pacing, "_STRIDE", stride)
        assert peak_occupancy(entry, exits) == reference_peak_occupancy(entry, exits)


def sampled_floor(entry, exits) -> int:
    """L, the largest f(k) = k + 1 - count(exit < entry[k]) over the sampled
    entries k = 0, S, 2S, ... of a sorted stream."""
    f = np.arange(1, len(entry) + 1) - np.searchsorted(exits, entry, side="left")
    return int(f[:: pacing._STRIDE].max())


def test_peak_at_every_offset_of_the_bracket():
    # d + 1 packets enter one after another and stay; after they leave, one
    # more enters alone (at the sample S when d = S - 1). f is 1 at the
    # samples, so the peak d + 1 sits d above L = 1; at d = S - 1 it is the
    # bracket's top, L + S - 1, at entry S - 1 strictly between two samples
    S = pacing._STRIDE
    for d in range(S):
        entry = np.append(np.arange(d + 1), 3 * S).astype(np.int64)
        exits = np.append(np.full(d + 1, 2 * S), 3 * S).astype(np.int64)
        assert sampled_floor(entry, exits) == 1
        with pytest.MonkeyPatch.context() as mp:
            passes = counting_passes(mp)
            assert peak_occupancy(entry, exits) == d + 1 == reference_peak_occupancy(entry, exits)
        assert len(passes) <= max_passes(S)


def test_peak_at_the_sampled_floor():
    # S + 1 packets enter one after another and stay, so the peak S + 1 is
    # f at the sample S itself; one more enters alone after they leave.
    # One failing pass settles it
    S = pacing._STRIDE
    entry = np.append(np.arange(S + 1), 3 * S).astype(np.int64)
    exits = np.append(np.full(S + 1, 2 * S), 3 * S).astype(np.int64)
    L = sampled_floor(entry, exits)
    with pytest.MonkeyPatch.context() as mp:
        passes = counting_passes(mp)
        assert peak_occupancy(entry, exits) == L == S + 1 == reference_peak_occupancy(entry, exits)
    assert passes == [L]


def test_peak_occupancy_allocates_no_whole_stream_temporary():
    # two sorted 1 M-packet streams (8 MB each): the pass neither sorts nor
    # merges them, and its samples and chunk comparisons stay well under
    # one stream's size
    entry = np.arange(1_000_000, dtype=np.int64) * 10
    exits = entry + 25
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert peak_occupancy(entry, exits) == 3
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("ordered", [True, False])
def test_occupancy_leaves_its_inputs_alone(ordered):
    a = np.array([0, 1, 2, 3, 5, 8], np.int64) * MS
    t = a + np.array([9, 1, 1, 0, 4, 2], np.int64) * MS
    if ordered:
        t = np.maximum.accumulate(t)
    a_was, t_was = a.copy(), t.copy()
    peak_occupancy(a, t)
    shaping_queue_timeline(a, t, MS)
    np.testing.assert_array_equal(a, a_was)
    np.testing.assert_array_equal(t, t_was)


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


@settings(max_examples=300)
@given(
    steps=st.lists(
        st.tuples(
            # ready time; a small range below makes ties
            st.one_of(st.integers(0, 10**15), st.integers(0, CLOCK_NS - 1)),
            # 60 works of at most CLOCK_NS // 60 sum to no more than the clock
            st.one_of(st.just(0), st.integers(0, 20), st.integers(0, 10**15),
                      st.integers(0, CLOCK_NS // 60)),
        ),
        min_size=1,
        max_size=60,
    ),
    tied=st.booleans(),
    floor=st.one_of(st.none(), st.integers(-(10**15), 10**15), st.integers(-CLOCK_NS, CLOCK_NS)),
)
def test_max_plus_matches_literal_loop(steps, tied, floor):
    ready = np.array([r % 8 if tied else r for r, _ in steps], np.int64)
    work = np.array([w for _, w in steps], np.int64)
    want = max_plus_loop(ready.tolist(), work.tolist(), floor)
    if want[-1] < CLOCK_NS:  # the literal loop's instants never fall
        np.testing.assert_array_equal(max_plus(ready, np.cumsum(work), floor), want)
    else:
        with pytest.raises(ConfigError, match="past|pass"):
            max_plus(ready, np.cumsum(work), floor)


@pytest.mark.parametrize(
    "arrival, gap, want",
    [
        ([0, 9 * 10**18], 10**17, [0, 9 * 10**18]),  # the last departure fits the clock
        ([9 * 10**18] * 2, 5 * 10**17, None),  # the second would not
        ([0, 0, 0], 2**62, None),  # 2 * gap does not fit int64
    ],
)
def test_forward_times_stays_on_the_clock(arrival, gap, want):
    if want is not None:
        np.testing.assert_array_equal(forward_times(np.array(arrival, np.int64), gap), want)
    else:
        with pytest.raises(ConfigError):
            forward_times(np.array(arrival, np.int64), gap)
