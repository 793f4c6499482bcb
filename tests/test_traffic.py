"""Arrival generation, merging and the trace CSV format."""
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floodsim import ConfigError, RngStream, read_trace_csv, to_ns, traffic
from floodsim.detector import DetectorModel, classify_stream
from floodsim.model import NS_PER_S, PacketClass, Trace
from floodsim.traffic import BenignSpec, FloodSpec, gen_benign, gen_flood, merge, write_trace_csv
from oracles import reference_gen_benign, reference_gen_flood, reference_merge


def test_benign_spec_validation():
    with pytest.raises(ConfigError):
        BenignSpec(period_s=0.0)
    with pytest.raises(ConfigError):
        BenignSpec(period_s=1.0, jitter_fraction=1.0)
    with pytest.raises(ConfigError):
        BenignSpec(period_s=1.0, num_sources=0)
    assert BenignSpec(period_s=0.01, num_sources=3).rate_pps == 300.0


def test_flood_spec_validation():
    with pytest.raises(ConfigError):
        FloodSpec(start_s=-1.0, duration_s=1.0, rate_pps=10.0)
    with pytest.raises(ConfigError):
        FloodSpec(start_s=0.0, duration_s=0.0, rate_pps=10.0)
    with pytest.raises(ConfigError):
        FloodSpec(start_s=0.0, duration_s=1.0, rate_pps=0.0)
    assert FloodSpec(start_s=2.0, duration_s=3.0, rate_pps=1.0).end_s == 5.0


def test_benign_no_jitter_exact_grid():
    tr = gen_benign(BenignSpec(period_s=0.01), 0.1, RngStream(1, 0))
    np.testing.assert_array_equal(tr.arrival_ns, np.arange(10) * 10_000_000)
    assert np.all(tr.klass == int(PacketClass.BENIGN))
    assert np.all(tr.source_id == 1)


def test_benign_jitter_bounds():
    spec = BenignSpec(period_s=0.01, jitter_fraction=0.4)
    tr = gen_benign(spec, 1.0, RngStream(2, 0))
    offsets = tr.arrival_ns - np.arange(len(tr)) * 10_000_000
    assert offsets.min() >= 0
    # rounding to ns can land exactly on the bound, hence <=
    assert offsets.max() <= to_ns(0.004)


def test_benign_multiple_sources():
    spec = BenignSpec(period_s=0.5, num_sources=3)
    tr = gen_benign(spec, 1.0, RngStream(3, 0))
    assert len(tr) == 6
    assert sorted(set(tr.source_id)) == [1, 2, 3]
    tr.validate()


def test_benign_sends_one_packet_per_period_started_before_the_horizon():
    # 1.05 s at 0.1 s: eleven periods start before the horizon, and the
    # jitter of the last one carries a packet past it
    spec = BenignSpec(period_s=0.1, jitter_fraction=0.9, num_sources=3)
    tr = gen_benign(spec, 1.05, RngStream(2, 1))
    assert len(tr) == 33
    assert tr.arrival_ns[-1] == 1_083_117_901 > to_ns(1.05)


def test_benign_zero_horizon():
    assert len(gen_benign(BenignSpec(period_s=0.01), 0.0, RngStream(1, 0))) == 0
    with pytest.raises(ValueError, match="horizon must be >= 0"):  # and a negative one is refused
        gen_benign(BenignSpec(period_s=0.01), -1.0, RngStream(1, 0))


@settings(max_examples=200)
@given(
    num_sources=st.integers(1, 50),
    jitter=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),  # 0: every source ties each period
    period_s=st.floats(0.01, 0.5),
    horizon_s=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_benign_matches_per_source_reference(num_sources, jitter, period_s, horizon_s, seed):
    spec = BenignSpec(period_s=period_s, jitter_fraction=jitter, num_sources=num_sources)
    got = gen_benign(spec, horizon_s, RngStream(seed, 1))
    want = reference_gen_benign(spec, horizon_s, RngStream(seed, 1))
    for column in ("arrival_ns", "klass", "source_id"):
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column), strict=True)


def packing_bound_ns(num_sources):
    """The first arrival whose key (arrival << shift | source) would not fit int64."""
    return 1 << (63 - num_sources.bit_length())


def gen_benign_counting_paths(spec, horizon_s, rng, block=traffic.BLOCK):
    """gen_benign, converting to ns `block` arrivals at a time, and how many
    times it took each ordering path."""
    calls = {"packed": 0, "stable": 0}

    def counted(name, sort):
        def wrapper(*args):
            calls[name] += 1
            return sort(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traffic, "BLOCK", block)
        mp.setattr(traffic, "_sort_packed", counted("packed", traffic._sort_packed))
        mp.setattr(traffic, "_sort_stable", counted("stable", traffic._sort_stable))
        return gen_benign(spec, horizon_s, rng), calls


@settings(max_examples=200)
@given(
    num_sources=st.integers(1, 50),
    n_per=st.integers(1, 4),
    jitter=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
    scale=st.floats(0.5, 1.9),  # 1 puts the last period's start (one period: its end) at the bound
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 7),
)
@example(num_sources=10, n_per=2, jitter=0.0, scale=0.99, seed=0, block=3)  # packed
@example(num_sources=10, n_per=2, jitter=0.0, scale=1.01, seed=0, block=3)  # stable
@example(num_sources=1, n_per=2, jitter=0.75, scale=1.5, seed=0, block=1)  # past MAX_TIME_S
def test_benign_matches_reference_on_either_side_of_the_packing_bound(num_sources, n_per, jitter, scale, seed,
                                                                      block):
    bound_ns = packing_bound_ns(num_sources)
    period_s = scale * bound_ns / NS_PER_S / max(n_per - 1, 1)
    spec = BenignSpec(period_s=period_s, jitter_fraction=jitter, num_sources=num_sources)
    horizon_s = (n_per - 0.5) * period_s
    try:
        want = reference_gen_benign(spec, horizon_s, RngStream(seed, 1))
    except ValueError:
        # one source packs below 2**62 ns, so its stable side reaches
        # MAX_TIME_S: an arrival past it is refused by both, not wrapped
        with pytest.raises(ValueError, match="time values must be below"):
            gen_benign_counting_paths(spec, horizon_s, RngStream(seed, 1), block)
        return
    got, calls = gen_benign_counting_paths(spec, horizon_s, RngStream(seed, 1), block)
    for column in ("arrival_ns", "klass", "source_id"):
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column), strict=True)
    packed = int(want.arrival_ns.max()) < bound_ns
    assert calls == {"packed": int(packed), "stable": int(not packed)}


@pytest.mark.parametrize(
    "offset_ns, path",
    [(-64, "packed"), (0, "stable"), (128, "stable")],
    ids=["one step below", "at the bound", "one step above"],
)
def test_benign_last_arrival_at_the_packing_bound(offset_ns, path):
    # no jitter: ten sources tie at 0 and again at one period, whose ns value
    # is exact. Near 2**59 ns float64 steps by 64 ns below and 128 ns above.
    last_ns = packing_bound_ns(10) + offset_ns
    spec = BenignSpec(period_s=last_ns / NS_PER_S, num_sources=10)
    got, calls = gen_benign_counting_paths(spec, 1.5 * spec.period_s, RngStream(11, 1))
    assert calls[path] == 1 and sum(calls.values()) == 1
    np.testing.assert_array_equal(got.arrival_ns, np.repeat([0, last_ns], 10))
    want = reference_gen_benign(spec, 1.5 * spec.period_s, RngStream(11, 1))
    for column in ("arrival_ns", "klass", "source_id"):
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column), strict=True)


def test_background_generation_and_labelling_memory_peaks():
    # 8 sources x 25 000 periods. gen_benign peaks at the 13 B/packet it
    # holds: the int64 cast of the ns grid onto its own buffer goes a block
    # at a time, and the sort and the source ids add no n-long int64 (a whole
    # cast peaked at 16, an argsort and its gathers at 24). Labelling holds
    # one block's uniforms and masks beside the 1 B/packet labels (one draw
    # of every uniform took 12 more).
    spec = BenignSpec(period_s=0.01, jitter_fraction=0.5, num_sources=8)
    gen_benign(spec, 1.0, RngStream(12, 1))  # warm-up: one-time state stays out of the peak
    gc.collect()
    tracemalloc.start()
    try:
        trace = gen_benign(spec, 250.0, RngStream(12, 1))
        gen_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        labels = classify_stream(trace.klass, DetectorModel(), RngStream(12, 3))
        label_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = len(trace)
    assert n == 200_000 and len(labels) == n
    assert gen_peak / n <= 14
    assert label_peak <= n + 2**20


def test_flood_generation_memory_peak():
    # a flood of 200 k packets peaks at the 13 B/packet it holds: its draws
    # are converted to ns over their own buffer a block at a time and sorted
    # in place (to_ns of the sorted offsets peaked at 33)
    spec = FloodSpec(start_s=1.0, duration_s=30.0, rate_pps=6667.0)
    gen_flood(FloodSpec(start_s=1.0, duration_s=1.0, rate_pps=10.0), RngStream(12, 10))  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        trace = gen_flood(spec, RngStream(12, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(len(trace) - 200_010) < 5 * np.sqrt(200_010)
    assert peak / len(trace) <= 14


def test_flood_window_and_class():
    spec = FloodSpec(start_s=2.0, duration_s=3.0, rate_pps=500.0)
    tr = gen_flood(spec, RngStream(4, 0))
    assert tr.arrival_ns.min() >= to_ns(2.0)
    assert tr.arrival_ns.max() < to_ns(5.0)
    assert np.all(np.diff(tr.arrival_ns) >= 0)
    assert np.all(tr.klass == int(PacketClass.ATTACK))
    assert np.all(tr.source_id == 0)
    # seeded, but the count should sit well inside the Poisson bulk
    assert abs(len(tr) - 1500) < 4 * np.sqrt(1500)


@settings(max_examples=200)
@given(
    start_s=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    duration_s=st.floats(1e-9, 10.0),
    mean=st.floats(0.0, 500.0),  # 0: an empty flood
    seed=st.integers(0, 2**32 - 1),
)
def test_flood_matches_reference(start_s, duration_s, mean, seed):
    spec = FloodSpec(start_s=start_s, duration_s=duration_s, rate_pps=max(mean, 1e-12) / duration_s)
    got = gen_flood(spec, RngStream(seed, 10))
    want = reference_gen_flood(spec, RngStream(seed, 10))
    for column in ("arrival_ns", "klass", "source_id"):
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column), strict=True)


def test_flood_counts_poisson_dispersion():
    # chi-square index-of-dispersion sanity over 1000 replications
    lam = 100.0
    spec = FloodSpec(start_s=0.0, duration_s=2.0, rate_pps=50.0)
    counts = np.array(
        [len(gen_flood(spec, RngStream(10, k))) for k in range(1000)], dtype=float
    )
    assert abs(counts.mean() - lam) < 4 * np.sqrt(lam / 1000)
    disp = (len(counts) - 1) * counts.var(ddof=1) / counts.mean()
    # scipy.stats.chi2.ppf([1e-4, 1 - 1e-4], 999), recorded so the suite needs no scipy
    lo, hi = 841.2512921569167, 1173.8503445158544
    assert lo < disp < hi


def test_merge_preserves_multiset_and_sorts():
    a = Trace(np.array([0, 5, 9]), np.zeros(3, np.uint8), np.full(3, 1, np.int32))
    b = Trace(np.array([2, 5]), np.ones(2, np.uint8), np.zeros(2, np.int32))
    out = merge([a, b])
    assert len(out) == 5
    np.testing.assert_array_equal(np.sort(out.arrival_ns), [0, 2, 5, 5, 9])
    assert np.all(np.diff(out.arrival_ns) >= 0)


def test_merge_tie_breaks_by_source_id():
    flood = Trace(np.array([100]), np.ones(1, np.uint8), np.zeros(1, np.int32))
    benign = Trace(np.array([100]), np.zeros(1, np.uint8), np.full(1, 2, np.int32))
    out = merge([benign, flood])
    # equal timestamps: source 0 (flood) first
    np.testing.assert_array_equal(out.source_id, [0, 2])


def test_merge_keeps_generation_order_within_source():
    a = Trace(np.array([7, 7, 7]), np.array([0, 1, 0], np.uint8), np.full(3, 4, np.int32))
    out = merge([a])
    np.testing.assert_array_equal(out.klass, [0, 1, 0])


def test_merge_rejects_unsorted_input():
    bad = Trace(np.array([3, 1]), np.zeros(2, np.uint8), np.zeros(2, np.int32))
    with pytest.raises(ValueError, match="sorted"):
        merge([bad])


def test_merge_empty():
    assert len(merge([])) == 0
    assert len(merge([Trace.empty(), Trace.empty()])) == 0


@st.composite
def sorted_parts(draw):
    """Sorted traces over a few arrival instants, so most arrivals tie, with
    several sources per part and empty parts among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        n = int(rng.choice([0, 1, 3, 40, 500]))
        arrival = np.sort(rng.integers(0, draw(st.sampled_from([1, 3, 50, 10**6])), n))
        parts.append(Trace(
            arrival.astype(np.int64),
            rng.integers(0, 2, n).astype(np.uint8),
            rng.integers(0, draw(st.integers(1, 5)), n).astype(np.int32),
        ))
    return parts


@settings(max_examples=200)
@given(sorted_parts())
def test_merge_matches_lexsort_reference(parts):
    got, want = merge(parts), reference_merge(parts)
    np.testing.assert_array_equal(got.arrival_ns, want.arrival_ns)
    np.testing.assert_array_equal(got.klass, want.klass)
    np.testing.assert_array_equal(got.source_id, want.source_id)


def test_trace_csv_round_trip(tmp_path):
    rng = RngStream(6, 0).generator
    n = 200
    tr = Trace(
        np.sort(rng.integers(0, 10 * NS_PER_S, n)),
        rng.integers(0, 2, n).astype(np.uint8),
        rng.integers(0, 5, n).astype(np.int32),
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(path, tr)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back.arrival_ns, tr.arrival_ns)
    np.testing.assert_array_equal(back.klass, tr.klass)
    np.testing.assert_array_equal(back.source_id, tr.source_id)


def test_trace_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c,d\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(p)


def test_trace_csv_rejects_sparse_seq(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("seq,arrival_time_s,class,source_id\n1,0.5,B,0\n")
    with pytest.raises(ValueError, match="seq"):
        read_trace_csv(p)


def test_trace_csv_rejects_unknown_class(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("seq,arrival_time_s,class,source_id\n0,0.5,X,0\n")
    with pytest.raises(ValueError, match="class"):
        read_trace_csv(p)
    # and a trace built in code is not written with a class it cannot name
    with pytest.raises(ValueError, match="unknown packet class 2"):
        write_trace_csv(tmp_path / "out.csv", Trace([0, 1], [0, 2], [0, 0]))


@pytest.mark.parametrize(
    "rows, match",
    [
        ("0,0.5,B,0\n\n1,0.6,B,0\n", "^trace row 1: expected 4 fields, got 0$"),
        ("0,0.5,B\n", "^trace row 0: expected 4 fields, got 3$"),
        ("0,0.5,B,0,7\n", "^trace row 0: expected 4 fields, got 5$"),
        ("0,0.5,B,2147483648\n", "^trace row 0: source_id out of int32 range"),
        ("0,0.5,B,2147483647\n1,0.6,B,-2147483649\n", "^trace row 1: source_id out of int32 range"),
        ("0,0.5,B,0\nx,0.6,B,0\n", "^trace row 1: invalid literal for int"),
        ("0,0.5,B,0\n1,abc,B,0\n", "^trace row 1: not a time value: 'abc'"),
        ("0,0.5,B,0\n1,0.6,B,z\n", "^trace row 1: invalid literal for int"),
    ],
    ids=["blank line", "three fields", "five fields", "source above int32", "source below int32",
         "seq not an integer", "time not a number", "source not an integer"],
)
def test_trace_csv_rejects_malformed_rows(tmp_path, rows, match):
    p = tmp_path / "bad.csv"
    p.write_text("seq,arrival_time_s,class,source_id\n" + rows)
    with pytest.raises(ValueError, match=match):
        read_trace_csv(p)


def test_trace_csv_round_trip_is_exact_at_long_horizons(tmp_path):
    # Above ~8.4e15 ns a float64 of the seconds can no longer hold every
    # nanosecond; writer and reader must both stay in integer arithmetic.
    rng = RngStream(7, 0).generator
    n = 2000
    tr = Trace(
        np.sort(rng.integers(10**16, 10**17, n)),
        rng.integers(0, 2, n).astype(np.uint8),
        rng.integers(0, 5, n).astype(np.int32),
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(path, tr)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back.arrival_ns, tr.arrival_ns)


@pytest.mark.parametrize(
    "text, ns",
    [("1.5", 1_500_000_000), ("0.0000000005", 0), ("0.0000000015", 2), ("2.0000000025", 2_000_000_002),
     ("1e-9", 1), ("100", 100 * NS_PER_S)],
)
def test_trace_csv_reads_decimal_seconds_half_even(tmp_path, text, ns):
    p = tmp_path / "t.csv"
    p.write_text(f"seq,arrival_time_s,class,source_id\n0,{text},A,0\n")
    assert read_trace_csv(p).arrival_ns.tolist() == [ns]


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "abc", "1e30"])
def test_trace_csv_rejects_non_finite_or_bad_times(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(f"seq,arrival_time_s,class,source_id\n0,{text},B,0\n")
    with pytest.raises(ValueError):
        read_trace_csv(p)
