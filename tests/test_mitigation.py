"""Drop/skip index machine, skip policies and the event log."""
import csv
import dataclasses
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from floodsim import ConfigError, RngStream, optimal_skip, to_ns
from floodsim.analysis import exact_drop_count, exact_window_count
from floodsim.detector import DetectorModel
from floodsim.mitigation import (
    AdaptiveSkip,
    EVENT_KINDS,
    EventLog,
    FixedSkip,
    MitigationEvent,
    Outcome,
    run_mitigation,
    write_events_csv,
)
from floodsim import mitigation
from floodsim.model import InvariantViolation, Trace
from floodsim.pacing import max_plus
from oracles import (
    log_drop_instants,
    log_drop_time_ns,
    log_outcomes,
    log_release_ns,
    reference_run_mitigation,
    step_through_machine,
)


def perfect(window):
    """An error-free detector deciding windows of `window` packets."""
    return DetectorModel(tpr=1.0, tnr=1.0, window=window)


FATE = {
    int(Outcome.TESTED_FORWARDED): "tested",
    int(Outcome.FORWARDED): "fwd",
    int(Outcome.DROPPED): "drop",
}


def make_trace(klass, arrival_ns=None):
    klass = np.asarray(klass, np.uint8)
    n = len(klass)
    if arrival_ns is None:
        arrival_ns = np.arange(n, dtype=np.int64) * 1_000_000
    return Trace(np.asarray(arrival_ns, np.int64), klass, np.zeros(n, np.int32))


def check_against_reference(res, labels, window, skip):
    ref = step_through_machine(list(labels), window, skip, klass=list(labels))
    assert [FATE[int(o)] for o in res.outcomes] == ref["fate"]
    st = res.state
    assert st.windows_tested == ref["windows_tested"]
    assert st.mitigation_windows == ref["mitigation_windows"]
    assert st.episodes == ref["episodes"]
    assert st.packets_dropped == ref["dropped"]
    assert st.packets_forwarded == ref["forwarded"]
    assert st.benign_dropped == ref["benign_dropped"]
    return ref


def flood_with_tail():
    klass = np.array([1] * 1000 + [0] * 200, np.uint8)
    return make_trace(klass)


def test_flood_with_benign_tail_frozen_walk():
    trace = flood_with_tail()
    res = run_mitigation(trace, perfect(20), FixedSkip(100), labels=trace.klass)
    st = res.state

    assert st.windows_tested == 15
    assert st.episodes == 1
    assert st.mitigation_windows == 9
    assert st.packets_dropped == 972
    assert st.attack_dropped == 972 and st.benign_dropped == 0
    assert st.packets_forwarded == 228
    assert int((res.outcomes == Outcome.DROPPED).sum()) == 972

    out = res.outcomes
    assert np.all(out[:972] == int(Outcome.DROPPED))
    assert np.all(out[972:1071] == int(Outcome.FORWARDED))
    assert np.all(out[1071:1191] == int(Outcome.TESTED_FORWARDED))
    assert np.all(out[1191:] == int(Outcome.FORWARDED))

    check_against_reference(res, trace.klass, 20, 100)


def test_flood_with_benign_tail_release_semantics():
    trace = flood_with_tail()
    res = run_mitigation(trace, perfect(20), FixedSkip(100), labels=trace.klass)

    # dropped packets never release; their drop instant is the verdict
    assert np.all(res.release_ns[:972] == -1)
    assert res.drop_time_ns[0] == trace.arrival_ns[19]
    assert res.drop_time_ns[20] == trace.arrival_ns[138]
    assert np.all(res.drop_time_ns[972:] == -1)

    # packets straddled by the skip leave together at the clearing verdict
    assert np.all(res.release_ns[972:1071] == trace.arrival_ns[1090])
    # tested packets and the trailing leftovers keep their own arrival
    np.testing.assert_array_equal(res.release_ns[1071:1191], trace.arrival_ns[1071:1191])
    np.testing.assert_array_equal(res.release_ns[1191:], trace.arrival_ns[1191:])


def test_flood_with_benign_tail_event_log():
    trace = flood_with_tail()
    res = run_mitigation(trace, perfect(20), FixedSkip(100), labels=trace.klass)

    events = res.events
    attacks = events[events.is_kind("WINDOW_ATTACK")]
    assert len(attacks) == 9
    starts = attacks.first
    assert starts[0] == 0
    # consecutive alarm windows sit skip + window - 1 packets apart
    assert np.all(np.diff(starts) == 119)

    drops = events[events.is_kind("DROP_RANGE")]
    assert (drops.first[0], drops.last[0]) == (0, 19)
    assert (drops.first[1], drops.last[1]) == (20, 138)
    assert int((drops.last - drops.first + 1).sum()) == 972

    fwd = events[events.is_kind("FORWARD_RANGE")]
    assert (fwd.first[0], fwd.last[0]) == (972, 1090)


def test_flood_walk_matches_count_formula():
    trace = flood_with_tail()
    res = run_mitigation(trace, perfect(20), FixedSkip(100), labels=trace.klass)
    attacks = int(res.events.is_kind("WINDOW_ATTACK").sum())
    assert exact_window_count(1000, 20, 100) == 9 == attacks
    # the machine stops condemning at the last verdict, so realized drops sit
    # at most one skip stride under the N*(m+W) figure
    delta = float(exact_drop_count(9, 20, 100))
    assert delta == 1080.0
    assert 0 <= delta - res.state.packets_dropped <= 120


def test_pure_attack_stream_frozen_walk():
    klass = np.ones(1000, np.uint8)
    trace = make_trace(klass)
    res = run_mitigation(trace, perfect(20), FixedSkip(100), labels=klass)
    st = res.state
    assert st.windows_tested == 9
    assert st.mitigation_windows == 8
    assert st.packets_dropped == 972
    assert st.packets_forwarded == 28
    # leftovers below the (out of range) test cursor flush at stream end
    assert np.all(res.outcomes[972:] == int(Outcome.FORWARDED))
    assert np.all(res.release_ns[972:] == trace.arrival_ns[-1])
    check_against_reference(res, klass, 20, 100)


def test_random_streams_match_reference_machine():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n = int(rng.integers(1, 400))
        window = int(rng.choice([1, 2, 3, 5, 9, 10, 20]))
        skip = int(rng.choice([1, 2, 5, 17, 100]))
        p = float(rng.choice([0.1, 0.5, 0.9]))
        labels = (rng.random(n) < p).astype(np.uint8)
        res = run_mitigation(make_trace(labels), perfect(window), FixedSkip(skip), labels=labels)
        check_against_reference(res, labels, window, skip)


@pytest.mark.parametrize("window", [9, 10])
def test_trailing_partial_window_threshold(window):
    half = math.ceil(window / 2)
    for extra, want in [(half, 2), (half - 1, 1)]:
        labels = np.zeros(window + extra, np.uint8)
        res = run_mitigation(make_trace(labels), perfect(window), FixedSkip(5), labels=labels)
        assert res.state.windows_tested == want
        untested = int(np.count_nonzero(res.outcomes == int(Outcome.FORWARDED)))
        assert untested == (0 if want == 2 else half - 1)


def test_quiet_stream_never_drops():
    labels = np.zeros(500, np.uint8)
    trace = make_trace(labels)
    res = run_mitigation(trace, perfect(20), FixedSkip(7), labels=labels)
    st = res.state
    assert st.packets_dropped == 0
    assert st.episodes == 0
    assert st.windows_tested == 25
    assert st.mitigation_windows == 0
    assert np.all(res.outcomes == int(Outcome.TESTED_FORWARDED))
    np.testing.assert_array_equal(res.release_ns, trace.arrival_ns)
    kinds = {EVENT_KINDS[k] for k in np.unique(res.events.kind)}
    assert kinds == {"WINDOW_CLEAR", "FORWARD_RANGE"}


def test_short_burst_below_majority_passes():
    # four hostile packets can never win a strict majority of nine
    for off in range(0, 87):
        labels = np.zeros(90, np.uint8)
        labels[off : off + 4] = 1
        res = run_mitigation(make_trace(labels), perfect(9), FixedSkip(50), labels=labels)
        assert res.state.packets_dropped == 0
        assert res.state.episodes == 0


def test_perfect_detector_with_rng_matches_prelabeled():
    klass = np.array([1] * 200 + [0] * 50, np.uint8)
    trace = make_trace(klass)
    a = run_mitigation(trace, perfect(10), FixedSkip(30), rng=RngStream(9, 1))
    b = run_mitigation(trace, perfect(10), FixedSkip(30), labels=klass)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)
    np.testing.assert_array_equal(a.release_ns, b.release_ns)


def test_optimal_skip_reference_points():
    assert optimal_skip(20, 0.05, 10805) == 127
    assert optimal_skip(20, 0.05, 35932) == 248


def test_optimal_skip_edge_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a burst within one window, and the algebraic zero of the closed
        # form, both clamp to 1 quietly
        assert optimal_skip(20, 0.05, 20) == 1
        assert optimal_skip(20, 0.05, 5) == 1
        assert optimal_skip(20, 0.05, 220) == 1
        assert optimal_skip(20, 0.05, 21) == 1
    with pytest.raises(ValueError):
        optimal_skip(0, 0.05, 100)
    with pytest.raises(ValueError):
        optimal_skip(20, 0.0, 100)


def burst(n):
    """n attack packets that all arrive at instant 0, and their labels."""
    labels = np.ones(n, np.uint8)
    return make_trace(labels, np.zeros(n, np.int64)), labels


def test_cost_ratio_past_the_skip_rule_is_a_config_error():
    # sqrt(2 * ratio) - 1 at window 1 and two packets, which floats round to
    # 2**62 and 2**63: the first fits int64, the second does not
    assert optimal_skip(1, 2.0**123, 2) == 2**62
    # run_mitigation sets the same skip at the first alarm of a burst that
    # arrived at once, over a backlog of the burst beyond the window
    trace, hot = burst(3)
    assert run_mitigation(trace, perfect(1), AdaptiveSkip(2.0**123), labels=hot).state.skip == 2**62
    big, big_hot = burst(120)
    for ratio in (2.0**125, 1e200, math.inf):
        with pytest.raises(ConfigError, match="cost-optimal skip"):
            optimal_skip(1, ratio, 2)
        with pytest.raises(ConfigError, match="cost-optimal skip"):
            run_mitigation(trace, perfect(1), AdaptiveSkip(ratio), labels=hot)
        with pytest.raises(ConfigError, match="cost-optimal skip"):
            run_mitigation(big, perfect(20), AdaptiveSkip(ratio), labels=big_hot)
    with pytest.raises(ValueError, match="positive"):
        optimal_skip(20, math.nan, 100)


def test_skip_policies():
    with pytest.raises(ValueError):
        FixedSkip(0)
    # the first alarm of a burst at window 20 sees the rest of it queued
    trace, hot = burst(20 + 10_000)
    res = run_mitigation(trace, perfect(20), FixedSkip(3), labels=hot)
    assert set(res.events.skip.tolist()) == {3}
    for queue, want in ((0, 1), (20, 1), (10805, 127)):
        assert optimal_skip(20, 0.05, float(queue)) == want
        trace, hot = burst(20 + queue)
        res = run_mitigation(trace, perfect(20), AdaptiveSkip(beta_over_alpha=0.05), labels=hot)
        assert res.events[1] == MitigationEvent(0, "RECALC_M", 0, 19, want)


# 3.5 would reach a slice deep in run_mitigation as a raw TypeError, and
# True is an int to Python that would run as skip 1
@pytest.mark.parametrize("skip", [3.5, True])
def test_skip_must_be_an_integer(skip):
    with pytest.raises(ConfigError, match="integer"):
        FixedSkip(skip)
    # a numpy integer is held as a Python int: at 2**63 - 1 its cursor sums
    # would wrap, and the first attack verdict would drop the whole burst
    big = FixedSkip(np.int64(2**63 - 1))
    assert type(big.skip) is int
    trace, hot = burst(200)
    assert run_mitigation(trace, perfect(20), big, labels=hot).state.packets_dropped == 20


def test_run_mitigation_argument_errors():
    labels = np.zeros(30, np.uint8)
    trace = make_trace(labels)
    zero = perfect(5)
    zero.window = 0  # past DetectorModel's own check
    with pytest.raises(ValueError, match="window"):
        run_mitigation(trace, zero, FixedSkip(5), labels=labels)
    with pytest.raises(ValueError, match="rng"):
        run_mitigation(trace, perfect(5), FixedSkip(5))
    with pytest.raises(ValueError, match="align"):
        run_mitigation(trace, perfect(5), FixedSkip(5), labels=labels[:-1])
    with pytest.raises(ValueError, match="test_pacing_ns"):
        run_mitigation(trace, perfect(5), FixedSkip(5), labels=labels, test_pacing_ns=-1)

    # a policy is one of the two skip records, not anything that looks like one
    for policy in (dataclasses.make_dataclass("OtherSkip", ["skip"])(5), 5, None):
        with pytest.raises(TypeError, match="FixedSkip or an AdaptiveSkip"):
            run_mitigation(trace, perfect(5), policy, labels=labels)


def test_adaptive_skip_recalc_from_backlog():
    # two instantaneous bursts: the first alarm only sees the first one
    arr = np.concatenate(
        [np.full(2500, 1_000_000, np.int64), np.full(2500, 2_000_000, np.int64)]
    )
    klass = np.ones(5000, np.uint8)
    trace = Trace(arr, klass, np.zeros(5000, np.int32))
    res = run_mitigation(trace, perfect(20), AdaptiveSkip(0.05), labels=klass)

    recalcs = res.events[res.events.is_kind("RECALC_M")]
    attacks = res.events[res.events.is_kind("WINDOW_ATTACK")]
    assert len(recalcs) >= 2
    assert len(recalcs) <= len(attacks)
    # backlog at the first alarm: 2500 arrived, one window disposed
    assert recalcs.skip[0] == optimal_skip(20, 0.05, 2480) == 50
    assert recalcs.skip[0] < optimal_skip(20, 0.05, 5000) == 80
    assert np.all(np.diff(recalcs.skip) != 0)


def test_fixed_policy_never_recalcs():
    arr = np.concatenate(
        [np.full(2500, 1_000_000, np.int64), np.full(2500, 2_000_000, np.int64)]
    )
    klass = np.ones(5000, np.uint8)
    trace = Trace(arr, klass, np.zeros(5000, np.int32))
    res = run_mitigation(trace, perfect(20), FixedSkip(100), labels=klass)
    assert not res.events.is_kind("RECALC_M").any()
    assert np.all(res.events.skip == 100)


def test_verdict_pacing_spaces_decisions():
    # a burst arriving within 50 ns, decided through a paced tester
    n = 50
    labels = np.zeros(n, np.uint8)
    trace = Trace(np.arange(n, dtype=np.int64), labels, np.zeros(n, np.int32))
    pace = to_ns(0.003)
    res = run_mitigation(
        trace, perfect(5), FixedSkip(1), labels=labels, test_pacing_ns=pace
    )
    clears = res.events[res.events.is_kind("WINDOW_CLEAR")]
    assert len(clears) == 10
    assert np.all(np.diff(clears.time_ns) >= 5 * pace)
    assert np.all(clears.time_ns >= trace.arrival_ns[clears.last])


@pytest.mark.parametrize(
    "labels, pace, want",
    [
        # one-packet windows at t = 0: all clear is one block of verdicts,
        # alternating verdicts are one block each
        ([0, 0, 0, 0], 2**61, [0, 2**61, 2**62, 3 * 2**61]),
        ([1, 0, 1, 0], 2**61, [0, 2**61, 2**62, 3 * 2**61]),
        # the block's work sum, 2 * pace, is past int64; its verdicts are not
        ([0, 0], 3 * 2**61, [0, 3 * 2**61]),
        # the last verdict, 3 * 2**62, would pass the clock
        ([0, 0, 0, 0], 2**62, None),
        ([1, 0, 1, 0], 2**62, None),
    ],
)
def test_verdict_clock_stays_on_the_clock(labels, pace, want):
    labels = np.array(labels, np.uint8)
    trace = make_trace(labels, np.zeros(len(labels), np.int64))
    if want is not None:
        res = assert_matches_references(trace, labels, 1, FixedSkip(1), pace)
        assert res.events.time_ns[::2].tolist() == want
    else:
        with pytest.raises(ConfigError, match="past|pass"):
            run_mitigation(trace, perfect(1), FixedSkip(1), labels=labels, test_pacing_ns=pace)


def test_events_csv_uses_one_based_positions(tmp_path):
    trace = flood_with_tail()
    res = run_mitigation(trace, perfect(20), FixedSkip(100), labels=trace.klass)
    path = tmp_path / "events.csv"
    write_events_csv(path, res.events)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["event_time_s", "event", "from_seq", "to_seq", "m_value"]
    assert rows[1] == ["0.019000000", "WINDOW_ATTACK", "1", "20", "100"]
    assert rows[2] == ["0.019000000", "DROP_RANGE", "1", "20", "100"]
    assert len(rows) == 1 + len(res.events)


def test_event_log_rows_and_slices():
    trace = flood_with_tail()
    events = run_mitigation(trace, perfect(20), FixedSkip(100), labels=trace.klass).events
    assert events.time_ns.dtype == np.int64 and events.kind.dtype == np.uint8
    assert events[0] == MitigationEvent(19_000_000, "WINDOW_ATTACK", 0, 19, 100)
    rows = list(events)
    assert len(rows) == len(events)
    assert rows[-1] == events[-1] == events[len(events) - 1]
    part = events[2:5]
    assert isinstance(part, EventLog)
    assert list(part) == rows[2:5]
    drops = events[events.is_kind("DROP_RANGE")]
    assert list(drops) == [ev for ev in rows if ev.kind == "DROP_RANGE"]


def assert_matches_references(trace, labels, window, policy, pace):
    """run_mitigation agrees with the one-verdict-at-a-time reference in
    every output, and under FixedSkip with the literal cursor walk."""
    got = run_mitigation(trace, perfect(window), policy, labels=labels, test_pacing_ns=pace)
    want = reference_run_mitigation(
        trace, perfect(window), policy, labels=labels, test_pacing_ns=pace
    )
    # the records alone tile [0, n), the stream-end flush among them
    ranges = [(first, end) for _, first, end, *_ in got.blocks]
    assert [0, *(end for _, end in ranges)] == [*(first for first, _ in ranges), len(trace)]
    assert ranges[-1][1] == len(trace) if ranges else len(trace) == 0
    np.testing.assert_array_equal(got.outcomes, want.outcomes)
    np.testing.assert_array_equal(got.release_ns, want.release_ns)
    np.testing.assert_array_equal(got.drop_time_ns, want.drop_time_ns)
    assert dataclasses.asdict(got.state) == dataclasses.asdict(want.state)
    ev = got.events
    assert ev.time_ns.tolist() == [e.time_ns for e in want.events]
    assert [EVENT_KINDS[k] for k in ev.kind] == [e.kind for e in want.events]
    assert ev.first.tolist() == [e.first for e in want.events]
    assert ev.last.tolist() == [e.last for e in want.events]
    assert ev.skip.tolist() == [e.skip for e in want.events]
    if isinstance(policy, FixedSkip):
        ref = step_through_machine(list(labels), window, policy.skip, klass=list(trace.klass))
        assert [FATE[int(o)] for o in got.outcomes] == ref["fate"]
        assert got.state.windows_tested == ref["windows_tested"]
        assert got.state.mitigation_windows == ref["mitigation_windows"]
        assert got.state.episodes == ref["episodes"]
        assert got.state.benign_dropped == ref["benign_dropped"]
        assert got.state.attack_dropped == ref["attack_dropped"]
    return got


def bursty_labels(rng, n):
    """Labels in bursts of random length, each with its own attack share;
    about one burst in three is a long flood of 1 000-5 000 packets."""
    labels = np.empty(n, np.uint8)
    at = 0
    while at < n:
        if rng.random() < 1 / 3:
            run, share = int(rng.integers(1_000, 5_000)), rng.choice([1.0, 0.6])
        else:
            run, share = int(rng.integers(1, 200)), rng.choice([0.0, 0.3, 0.6, 1.0])
        labels[at : at + run] = rng.random(min(run, n - at)) < share
        at += run
    return labels


@st.composite
def machine_cases(draw):
    """A stream with bursty labels, ties and gaps in its arrivals, and a
    window machine configuration to run over it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 400) | st.integers(400, 3000) | st.integers(3000, 6000))
    labels = bursty_labels(rng, n)
    klass = np.where(rng.random(n) < 0.1, 1 - labels, labels).astype(np.uint8)
    gaps = rng.choice([0, 1, 1_000, 1_000_000, 50_000_000], n, p=[0.3, 0.1, 0.2, 0.3, 0.1])
    trace = Trace(np.cumsum(gaps).astype(np.int64), klass, np.zeros(n, np.int32))
    window = draw(st.integers(1, 25))
    policy = draw(
        st.builds(
            FixedSkip,
            st.integers(1, 8) | st.integers(1, 80) | st.integers(80, 10_000) | st.just(2**63 - 1),
        )
        | st.builds(AdaptiveSkip, st.floats(0.001, 2.0))
    )
    pace = draw(st.sampled_from([0, 1, 1_000, 1_000_000]))
    return trace, labels, window, policy, pace


@st.composite
def stream_end_cases(draw):
    """A machine case cut so that its stream ends inside a skip region, in a
    tail shorter than ceil(W/2) past the test cursor, or exactly at a window
    end. The cut is drawn from the uncut run's windows, no earlier than the
    packets arrived by the verdicts it keeps, so the cut run keeps them and
    their skips. Adaptive skips also draw cost ratios large enough to pass
    over packets."""
    trace, labels, window, policy, pace = draw(machine_cases())
    if isinstance(policy, AdaptiveSkip):
        policy = draw(st.just(policy) | st.builds(AdaptiveSkip, st.floats(5.0, 50.0)))
    n, min_tail = len(trace), math.ceil(window / 2)
    res = run_mitigation(trace, perfect(window), policy, labels=labels, test_pacing_ns=pace)
    _, starts, ends, now, attack, _, after = mitigation._windows(res)
    tested = starts <= ends
    ends, now, attack, after = ends[tested], now[tested], attack[tested], after[tested]
    # a fixed skip reads no queue estimate, so any cut keeps it
    arrived = trace.arrival_ns.searchsorted(now, "right") * isinstance(policy, AdaptiveSkip)
    kind = draw(st.sampled_from(["skip", "tail", "window"]))
    spans = []
    for e, hit, skip, keep, keep_before in zip(
        ends.tolist(), attack.tolist(), after.tolist(), arrived.tolist(), [0, *arrived[:-1].tolist()]
    ):
        cursor = e + skip if hit else e + 1
        lo, hi = {
            "skip": (max(e + 2, keep), e + skip if hit else e + 1),
            "tail": (max(cursor + 1, keep), cursor + min_tail - 1),
            "window": (max(e + 1, keep_before), e + 1),
        }[kind]
        if lo <= min(hi, n):
            spans.append((lo, min(hi, n)))
    if not spans:
        return trace, labels, window, policy, pace
    event(f"ends {kind}, {type(policy).__name__}, paced {pace > 0}")
    lo, hi = draw(st.sampled_from(spans))
    cut = draw(st.integers(lo, hi))
    part = Trace(trace.arrival_ns[:cut], trace.klass[:cut], trace.source_id[:cut])
    return part, labels[:cut], window, policy, pace


@settings(max_examples=200)
@given(machine_cases() | stream_end_cases())
def test_machine_matches_reference_loop(case):
    assert_matches_references(*case)


@settings(max_examples=60)
@given(machine_cases(), st.integers(1, 64))
def test_machine_with_small_vote_blocks_matches_reference_loop(case, block):
    # the vote prefix sum is built BLOCK labels at a time: small blocks put
    # windows and runs astride the block edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mitigation, "BLOCK", block)
        assert_matches_references(*case)


def test_vote_prefix_sum_allocates_no_whole_stream_temporary():
    # 200 k prelabelled packets, window 20, every window clear. Measured 10.4
    # B/packet: the int64 prefix sum (8) and 48 B of block records per window.
    # One cumsum of the whole label comparison cast it to int64 first (17).
    n = 200_000
    trace = Trace(np.arange(n, dtype=np.int64) * 100_000, np.zeros(n, np.uint8), np.ones(n, np.int32))
    labels = np.zeros(n, np.uint8)
    labels[::7] = 1
    model = DetectorModel(window=20)
    run_mitigation(trace, model, AdaptiveSkip(0.05), labels=labels)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        res = run_mitigation(trace, model, AdaptiveSkip(0.05), labels=labels, test_pacing_ns=5_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.state.windows_tested == n // 20 and res.state.packets_dropped == 0
    assert peak / n <= 12


@settings(max_examples=100)
@given(machine_cases().filter(lambda case: isinstance(case[3], FixedSkip)), st.integers(1, 10**9))
def test_fixed_skip_does_not_depend_on_the_verdict_clock(case, pace):
    """Under a fixed skip the verdict clock moves only the events' instants,
    and only later, so the Monte Carlo's costs are those of any clock."""
    trace, labels, window, policy, _ = case
    paced, unpaced = (
        run_mitigation(trace, perfect(window), policy, labels=labels, test_pacing_ns=p)
        for p in (pace, 0)
    )
    np.testing.assert_array_equal(paced.outcomes, unpaced.outcomes)
    assert dataclasses.asdict(paced.state) == dataclasses.asdict(unpaced.state)
    for name in ("kind", "first", "last", "skip"):
        np.testing.assert_array_equal(getattr(paced.events, name), getattr(unpaced.events, name))
    assert np.all(paced.events.time_ns >= unpaced.events.time_ns)


READS = ("events", "outcomes", "release_ns", "drop_time_ns")


@settings(max_examples=100)
@given(machine_cases(), st.permutations(READS))
def test_reads_in_any_order_match_the_reference(case, order):
    """The log is expanded from the block records on its first read, whichever
    field that is, and held; the per-packet fields are derived on each read."""
    trace, labels, window, policy, pace = case
    got = run_mitigation(trace, perfect(window), policy, labels=labels, test_pacing_ns=pace)
    want = reference_run_mitigation(
        trace, perfect(window), policy, labels=labels, test_pacing_ns=pace
    )
    assert "events" not in vars(got)  # nothing expanded by the run itself
    for name in order + order:
        value = getattr(got, name)
        if name == "events":
            assert list(value) == want.events
        else:
            np.testing.assert_array_equal(value, getattr(want, name))
            assert value.dtype == getattr(want, name).dtype
    assert got.events is got.events


LOG_READERS = {
    "outcomes": log_outcomes,
    "release_ns": log_release_ns,
    "drop_time_ns": log_drop_time_ns,
    "drop_instants": log_drop_instants,
}


@settings(max_examples=100)
@given(machine_cases())
def test_table_readers_match_the_log_readers(case):
    """The per-packet arrays read from the per-window table are the ones the
    event log's range rows give, and reading them expands no log."""
    trace, labels, window, policy, pace = case
    got = run_mitigation(trace, perfect(window), policy, labels=labels, test_pacing_ns=pace)
    assume(got.state.packets_dropped > 0)
    table = {name: getattr(got, name) for name in LOG_READERS}
    table["drop_instants"] = got.drop_instants()
    assert "events" not in vars(got)
    for name, reader in LOG_READERS.items():
        want = reader(got)
        np.testing.assert_array_equal(table[name], want)
        assert table[name].dtype == want.dtype


def test_release_without_drops_is_a_read_only_view_of_the_arrivals():
    trace = make_trace([0] * 95)
    res = run_mitigation(trace, perfect(20), AdaptiveSkip(0.05), labels=trace.klass)
    assert res.state.packets_dropped == 0
    release = res.release_ns
    assert np.shares_memory(release, trace.arrival_ns)
    np.testing.assert_array_equal(release, trace.arrival_ns)
    with pytest.raises(ValueError, match="read-only"):
        release[0] = 1
    assert trace.arrival_ns.flags.writeable  # the trace's own array is left as it was
    np.testing.assert_array_equal(res.drop_time_ns, np.full(95, -1))


def test_release_with_drops_builds_the_window_table_once(monkeypatch):
    # release_ns takes its verdict instants and its tested-at-arrival mask
    # from one per-window table, not a second one through outcomes
    labels = [0] * 40 + [1] * 60 + [0] * 45
    trace = make_trace(labels)
    res = run_mitigation(trace, perfect(20), FixedSkip(3), labels=trace.klass, test_pacing_ns=1_000)
    assert res.state.packets_dropped > 0
    want = log_release_ns(res)
    calls = []
    build = mitigation._windows
    monkeypatch.setattr(mitigation, "_windows", lambda r: calls.append(1) or build(r))
    for reads in (1, 2):
        release = res.release_ns
        assert len(calls) == reads
        np.testing.assert_array_equal(release, want)
        assert release.dtype == want.dtype


def test_partition_check_refuses_gaps_and_overlaps():
    def record(first, end):
        return (False, first, end, 1, 1, np.array([first]), np.array([end - 1]), np.array([0]))

    def flush(first, n):  # the stream-end flush: a clear window that tests nothing
        return (False, first, n, 1, 1, [n], [n - 1], np.array([0]))

    mitigation._check_partition([record(0, 20), record(20, 40)], 40)
    mitigation._check_partition([record(0, 20), record(20, 30), flush(30, 40)], 40)
    mitigation._check_partition([flush(0, 40)], 40)  # a stream too short to test
    mitigation._check_partition([], 0)
    for blocks in (
        [record(0, 20), record(21, 40)],  # a gap between blocks
        [record(0, 20), record(19, 40)],  # an overlap
        [record(1, 20), record(20, 40)],  # the first packet left out
        [record(0, 20), record(20, 30), flush(31, 40)],  # a gap before the flush
        [record(0, 20), record(20, 30)],  # no flush, short of the end
        [record(0, 20), record(20, 40), flush(39, 40)],  # a flush over decided packets
        [record(0, 20), record(20, 30), flush(30, 41)],  # a flush past the end
        [],  # nothing recorded for a nonempty stream
    ):
        with pytest.raises(InvariantViolation, match="partition"):
            mitigation._check_partition(blocks, 40)


def split_flush(res, n):
    """(first packet flushed, final test cursor) when the stream-end flush
    leaves packets both behind the cursor and from it on, else None."""
    last = res.events[-1] if len(res.events) else None
    if last and last.kind == "FORWARD_RANGE" and last.first < res.state.test_cursor < n:
        return last.first, res.state.test_cursor
    return None


def next_cursors(res):
    """The test cursor after each attack verdict: the window end plus the skip."""
    drops = res.events[res.events.is_kind("DROP_RANGE")]
    return (drops.last + drops.skip).tolist()


@st.composite
def split_flush_cases(draw):
    """A flood under a fixed or adaptive skip, cut where its stream-end flush
    is split: the last verdict is an attack whose skip passes over packets
    behind the final test cursor, and fewer than half a window remain from
    the cursor on. The cut is searched a few packets past each attack
    verdict's cursor on the uncut stream; under an adaptive skip the cut
    moves the cursor, so the search follows it a few steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(200, 3000))
    labels = (rng.random(n) < draw(st.sampled_from([1.0, 0.9, 0.7]))).astype(np.uint8)
    gaps = rng.choice([0, 1_000, 1_000_000], n, p=[0.4, 0.4, 0.2])
    trace = Trace(np.cumsum(gaps).astype(np.int64), labels, np.zeros(n, np.int32))
    window = draw(st.integers(3, 25))
    past = draw(st.integers(1, (window + 1) // 2 - 1))  # packets from the final cursor on
    # a cut stream's queue estimate counts only the packets left in it, so an
    # adaptive skip passes over packets at its last verdict only under a
    # large cost ratio and verdicts that lag the arrivals
    policy, pace = draw(
        st.tuples(st.builds(FixedSkip, st.integers(2, 300)), st.sampled_from([0, 1_000, 1_000_000]))
        | st.tuples(st.builds(AdaptiveSkip, st.floats(5.0, 50.0)), st.just(1_000_000))
    )

    def run(cut):
        part = Trace(trace.arrival_ns[:cut], labels[:cut], trace.source_id[:cut])
        return part, run_mitigation(part, perfect(window), policy, labels=labels[:cut],
                                    test_pacing_ns=pace)

    for cut in [c + past for c in next_cursors(run(n)[1]) if c + past <= n][:20]:
        for _ in range(4):
            part, res = run(cut)
            if split_flush(res, cut):
                return part, labels[:cut], window, policy, pace
            cursors = next_cursors(res)
            moved = cursors[-1] + past if cursors else cut
            if moved == cut or moved > n:
                break
            cut = moved
    assume(False)


@settings(max_examples=60)
@given(split_flush_cases())
def test_split_stream_end_flush_matches_reference_loop(case):
    trace, labels, window, policy, pace = case
    event(type(policy).__name__)
    res = assert_matches_references(*case)
    first, cursor = split_flush(res, len(trace))
    # behind the final test cursor the flush leaves at its instant, the
    # stream's last arrival; from the cursor on each packet at its arrival
    release = res.release_ns
    assert np.all(release[first:cursor] == trace.arrival_ns[-1])
    np.testing.assert_array_equal(release[cursor:], trace.arrival_ns[cursor:])
    assert np.all(res.drop_time_ns[first:] == -1)


def flood(n, share=1.0, seed=0):
    """A flood of n packets 1 us apart whose labels carry the given attack
    share, with every packet's class equal to its label."""
    labels = (np.random.default_rng(seed).random(n) < share).astype(np.uint8)
    return make_trace(labels, np.arange(n, dtype=np.int64) * 1_000), labels


@pytest.mark.parametrize(
    "n, window, skip, share, pace, attack_windows, last_len",
    [
        # 714 windows 7 apart: the search goes past its first span of 64
        (5_000, 5, 3, 1.0, 0, 714, 5),
        # a 0.6 share: attack runs end on clear windows
        (4_003, 4, 2, 0.6, 1_000, None, None),
        # 91 full windows 11 apart, then a partial attack window of 6 packets
        (1_007, 10, 2, 1.0, 1_000_000, 92, 6),
        # the skip jumps past the end of the stream
        (3_000, 20, 5_000, 1.0, 7, 1, 20),
        (600, 8, 2**63 - 1, 1.0, 0, 1, 8),
    ],
)
def test_strided_attack_runs_match_references(n, window, skip, share, pace, attack_windows,
                                              last_len):
    trace, labels = flood(n, share)
    res = assert_matches_references(trace, labels, window, FixedSkip(skip), pace)
    if attack_windows is not None:
        attacks = res.events[res.events.is_kind("WINDOW_ATTACK")]
        assert len(attacks) == attack_windows
        assert attacks.last[-1] - attacks.first[-1] + 1 == last_len
    else:
        assert res.state.episodes > 1


@pytest.mark.parametrize(
    "arrival_ns, window, pace, attack_windows, last_len, first_skip",
    [
        # window 1 over a burst: the skip is 0 until the first refresh
        (np.zeros(300, np.int64), 1, 1_000, 19, 1, 34),
        # the last window tested is a partial attack window of 7 packets
        (np.arange(230, dtype=np.int64) * 1_000, 10, 5_000, 8, 7, 1),
    ],
    ids=["window 1 burst", "partial last window"],
)
def test_adaptive_attack_runs_match_references(arrival_ns, window, pace, attack_windows, last_len,
                                               first_skip):
    labels = np.ones(len(arrival_ns), np.uint8)
    trace = make_trace(labels, arrival_ns)
    res = assert_matches_references(trace, labels, window, AdaptiveSkip(2.0), pace)
    assert res.events.skip[:2].tolist() == [0, first_skip]
    assert res.events[1].kind == "RECALC_M"
    attacks = res.events[res.events.is_kind("WINDOW_ATTACK")]
    assert len(attacks) == attack_windows
    assert attacks.last[-1] - attacks.first[-1] + 1 == last_len


def test_fixed_skip_decides_attack_runs_in_blocks(monkeypatch):
    # every verdict instant comes from the verdict clock's max_plus call, one
    # per block: a pure flood takes one block however many windows it has
    calls = []

    def counting_max_plus(ready, work_sum, floor=None):
        calls.append(len(ready))
        return max_plus(ready, work_sum, floor)

    monkeypatch.setattr(mitigation, "max_plus", counting_max_plus)
    trace, labels = flood(20_000)
    res = run_mitigation(trace, perfect(4), FixedSkip(1), labels=labels, test_pacing_ns=10)
    assert res.state.windows_tested == 5_000 == sum(calls)
    assert len(calls) == 1
    trace, labels = flood(20_002)  # the partial tail window is a block of its own
    run_mitigation(trace, perfect(4), FixedSkip(1), labels=labels)
    assert calls[1:] == [5_000, 1]
