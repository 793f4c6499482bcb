"""Scenario parsing, validation, and seeded trace assembly."""
import dataclasses
import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floodsim import (
    ConfigError,
    InvariantViolation,
    RngStream,
    Scenario,
    ScenarioError,
    ServiceTimeModel,
    expected_attack_fraction,
    expected_attack_packets,
    load_scenario,
    parse_scenario,
)
from floodsim import scenario
from floodsim.model import NS_PER_S, STREAM_BENIGN, STREAM_FLOOD_BASE, substream
from floodsim.scenario import build_trace
from floodsim.traffic import BenignSpec, FloodSpec, gen_benign, gen_flood
from oracles import reference_gen_benign, reference_gen_flood, reference_merge

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

EXAMPLE = """\
# background traffic
benign.period_s = 0.01
benign.num_sources = 2
flood.1.start_s = 20
flood.1.duration_s = 60
flood.1.rate_pps = 6667
sqf.D_ms = 3.0
aam.m_mode = optimal
run.seed = 7
run.horizon_s = 120
"""


def test_parse_example():
    scn = parse_scenario(EXAMPLE)
    assert scn.benign == BenignSpec(period_s=0.01, num_sources=2)
    assert len(scn.floods) == 1
    fl = scn.floods[0]
    assert (fl.start_s, fl.duration_s, fl.rate_pps) == (20.0, 60.0, 6667.0)
    assert fl.end_s == 80.0
    assert scn.pacing_gap_s == pytest.approx(3.0e-3)
    assert scn.skip_mode == "optimal"
    assert scn.seed == 7
    assert scn.horizon_s == 120.0


def test_empty_text_gives_defaults():
    scn = parse_scenario("")
    assert scn.benign == BenignSpec(period_s=0.01)
    assert scn.floods == []
    assert scn.sqf_enabled and scn.aam_enabled
    assert scn.skip_mode == "optimal"
    assert scn.fixed_skip == 100
    assert (scn.alpha, scn.beta) == (1.0, 0.05)
    assert scn.tau_s == pytest.approx(3.0e-3)
    assert scn.seed == 1
    assert scn.horizon_s == 10.0
    assert scn.sample_dt_s == pytest.approx(0.1)


def test_comments_and_blank_lines():
    scn = parse_scenario("\n   # note\nbenign.period_s = 0.02  # inline\n\n")
    assert scn.benign.period_s == 0.02


@pytest.mark.parametrize(
    "text,line_no,needle",
    [
        ("\nnosuch.key = 5", 2, "unknown key"),
        ("benign.period_s 0.01", 1, "key = value"),
        ("run.seed =", 1, "empty value"),
        ("sqf.enabled = maybe", 1, "boolean"),
        ("flood.1.rate = 5", 1, "unknown key"),
        ("run.seed = 1\nrun.drain_slowdown_factor = 3", 2, "unknown key"),
        ("sqf.link_latency_ms = 10", 1, "unknown key"),
        ("flood.x.rate_pps = 5", 1, "invalid literal"),
        ("run.seed = banana", 1, "invalid literal"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, needle):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert exc.value.line_no == line_no
    assert str(exc.value).startswith(f"line {line_no}: ")
    assert needle in str(exc.value)
    assert str(exc.value).startswith(f"line {line_no}:")
    assert needle in str(exc.value)


def test_incomplete_flood_rejected():
    with pytest.raises(ConfigError, match="missing"):
        parse_scenario("flood.1.start_s = 1\nflood.1.duration_s = 2")


def test_benign_can_be_switched_off():
    scn = parse_scenario(
        "benign.enabled = false\n"
        "flood.1.start_s = 1\nflood.1.duration_s = 2\nflood.1.rate_pps = 100\n"
    )
    assert scn.benign is None
    on = parse_scenario("benign.enabled = true\nbenign.period_s = 0.5\n")
    assert on.benign == BenignSpec(period_s=0.5)


def test_millisecond_keys_scale_to_seconds():
    scn = parse_scenario(
        "service.mean_normal_ms = 1.25\n"
        "service.var_normal_ms2 = 4\n"
        "sqf.D_ms = 2.5\n"
        "cost.tau_ms = 3\n"
        "run.sample_dt_ms = 50\n"
    )
    assert scn.service.mean_normal_s == pytest.approx(1.25e-3)
    assert scn.service.var_normal_s2 == pytest.approx(4.0e-6)
    assert scn.pacing_gap_s == pytest.approx(2.5e-3)
    assert scn.tau_s == pytest.approx(3.0e-3)
    assert scn.sample_dt_s == pytest.approx(50.0e-3)


def test_mitigation_needs_the_shaper():
    # drops happen in the forwarder's input queue, so there is no place to
    # drop from when shaping is off
    with pytest.raises(ConfigError, match="sqf"):
        parse_scenario("sqf.enabled = false\n")
    scn = parse_scenario("sqf.enabled = false\naam.enabled = false\n")
    assert not scn.sqf_enabled and not scn.aam_enabled


def test_flood_must_fit_horizon():
    with pytest.raises(InvariantViolation, match="horizon"):
        parse_scenario(
            "flood.1.start_s = 20\nflood.1.duration_s = 60\nflood.1.rate_pps = 10\n"
            "run.horizon_s = 50\n"
        )


def test_gaps_and_service_times_must_fit_the_clock():
    # one packet a ms: 9 000 service times of 10^6 s end within the 9.2e9 s
    # of int64 nanoseconds, 10 000 do not
    unshaped = ("benign.period_s = 0.001\nsqf.enabled = false\naam.enabled = false\n"
                "service.mean_normal_ms = 1000000000\n")
    parse_scenario(unshaped + "run.horizon_s = 9\n")
    with pytest.raises(ConfigError, match="past the clock"):
        parse_scenario(unshaped + "run.horizon_s = 10\n")
    parse_scenario(unshaped + "run.horizon_s = 10\nservice.ceiling_ms = 1000\n")
    # behind the shaper each packet adds its gap and its service time
    shaped = "benign.period_s = 0.001\nrun.horizon_s = 10\naam.enabled = false\n"
    parse_scenario(shaped + "sqf.D_ms = 500000000\n")
    parse_scenario(shaped + "service.mean_normal_ms = 500000000\n")
    with pytest.raises(ConfigError, match="past the clock"):
        parse_scenario(shaped + "sqf.D_ms = 500000000\nservice.mean_normal_ms = 500000000\n")


def test_cost_ratio_must_keep_every_optimal_skip_in_int64():
    # the run's whole volume bounds every backlog the adaptive skip sees
    flood = "flood.1.start_s = 1\nflood.1.duration_s = 1\nflood.1.rate_pps = 1000\n"
    parse_scenario(flood + "cost.alpha = 1\ncost.beta = 1e20\n")
    for cost in ("cost.alpha = 1e-300\ncost.beta = 1e300\n", "cost.alpha = 1\ncost.beta = 1e200\n"):
        with pytest.raises(ConfigError, match="cost-optimal skip"):
            parse_scenario(flood + cost)


NAN = float("nan")
FLOOD = dict(start_s=0.0, duration_s=1.0, rate_pps=10.0)
NAN_SETTINGS = [
    (BenignSpec, "period_s"),
    *((FloodSpec, name) for name in FLOOD),
    *((ServiceTimeModel, f.name) for f in dataclasses.fields(ServiceTimeModel)),
    *((Scenario, name) for name in ("alpha", "beta", "tau_s")),
    # a Scenario built in code reaches the clock check's not-finite path only this way
    *((Scenario, name) for name in ("pacing_gap_s", "horizon_s", "sample_dt_s")),
]


@pytest.mark.parametrize("cls, name", NAN_SETTINGS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NAN_SETTINGS])
def test_nan_settings_are_config_errors(cls, name):
    # every check is a bounded range, and nan fails each comparison
    kwargs = {**FLOOD, name: NAN} if cls is FloodSpec else {name: NAN}
    with pytest.raises(ConfigError):
        made = cls(**kwargs)
        if cls is Scenario:
            made.validate()


def test_bad_skip_mode():
    with pytest.raises(ConfigError, match="m_mode"):
        parse_scenario("aam.m_mode = magic\n")
    fixed = parse_scenario("aam.m_mode = fixed\naam.m_fixed = 42\n")
    assert fixed.skip_mode == "fixed" and fixed.fixed_skip == 42
    with pytest.raises(ConfigError, match="m_fixed"):
        parse_scenario("aam.m_fixed = 0\n")


def test_load_scenario(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(EXAMPLE)
    scn = load_scenario(path)
    assert scn == parse_scenario(EXAMPLE)


def small_scenario():
    return Scenario(
        benign=BenignSpec(period_s=0.01, jitter_fraction=0.3),
        floods=[FloodSpec(start_s=1.0, duration_s=1.0, rate_pps=500.0)],
        seed=5,
        horizon_s=3.0,
    )


def test_build_trace_is_seeded():
    scn = small_scenario()
    t1 = build_trace(scn, RngStream(scn.seed, 0), 0)
    t2 = build_trace(scn, RngStream(scn.seed, 0), 0)
    np.testing.assert_array_equal(t1.arrival_ns, t2.arrival_ns)
    np.testing.assert_array_equal(t1.klass, t2.klass)
    np.testing.assert_array_equal(t1.source_id, t2.source_id)

    t3 = build_trace(scn, RngStream(scn.seed, 0), 1000)
    assert list(t3.arrival_ns) != list(t1.arrival_ns)


def test_build_trace_contents():
    scn = small_scenario()
    trace = build_trace(scn, RngStream(scn.seed, 0), 0)
    trace.validate()
    attack = trace.arrival_ns[trace.klass == 1]
    assert attack.size > 0
    assert attack.min() >= 1_000_000_000 and attack.max() < 2_000_000_000
    benign = trace.arrival_ns[trace.klass == 0]
    assert benign.size == 300 * scn.benign.num_sources


@pytest.mark.parametrize("background", [True, False])
def test_one_stream_is_already_in_merge_order(background):
    # ns-scale arrivals tie often: across the six sources of a 3 ns period
    # with jitter, and inside one flood of 2 packets per ns
    rng = RngStream(7, 0)
    if background:
        benign = BenignSpec(period_s=3e-9, jitter_fraction=0.9, num_sources=6)
        scn = Scenario(benign=benign, floods=[], horizon_s=3e-7)
        part = gen_benign(benign, scn.horizon_s, substream(rng, STREAM_BENIGN))
    else:
        flood = FloodSpec(start_s=0.0, duration_s=5e-7, rate_pps=2e9)
        scn = Scenario(benign=None, floods=[flood], horizon_s=1e-6)
        part = gen_flood(flood, substream(rng, STREAM_FLOOD_BASE))
    assert np.any(np.diff(part.arrival_ns) == 0)
    got, want = build_trace(scn, rng), reference_merge([part])
    np.testing.assert_array_equal(got.arrival_ns, want.arrival_ns)
    np.testing.assert_array_equal(got.klass, want.klass)
    np.testing.assert_array_equal(got.source_id, want.source_id)


@st.composite
def trace_scenarios(draw):
    """A scenario with 0-6 background sources (0: none) and 0-4 floods, its
    times in units of 1 ns, where arrivals tie within and across streams, or
    of about a sixth of the one-sort bound 2**(63 - shift) ns, so that its
    last arrivals fall on either side of it."""
    sources = draw(st.integers(0, 6))
    unit_s = 1e-9
    if sources and draw(st.booleans()):
        bound_s = 2 ** (63 - sources.bit_length()) / NS_PER_S
        unit_s = draw(st.floats(0.5, 1.9)) * bound_s / 6
    benign = None
    if sources:
        jitter = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999)))  # 0: the sources tie
        benign = BenignSpec(period_s=draw(st.integers(1, 4)) * unit_s, jitter_fraction=jitter,
                            num_sources=sources)
    floods = []
    for _ in range(draw(st.integers(0, 4))):
        duration_s = draw(st.integers(1, 3)) * unit_s
        mean = draw(st.sampled_from([1e-9, 0.7, 4.0, 40.0]))  # 1e-9: almost surely no packet
        floods.append(FloodSpec(start_s=draw(st.integers(0, 6)) * unit_s, duration_s=duration_s,
                                rate_pps=mean / duration_s))
    return Scenario(benign=benign, floods=floods, horizon_s=draw(st.floats(0.0, 8.0)) * unit_s)


def reference_trace(scn, rng, run_key):
    parts = []
    if scn.benign is not None:
        parts.append(reference_gen_benign(scn.benign, scn.horizon_s, substream(rng, run_key + STREAM_BENIGN)))
    for k, flood in enumerate(scn.floods):
        parts.append(reference_gen_flood(flood, substream(rng, run_key + STREAM_FLOOD_BASE + k)))
    return reference_merge(parts)


@settings(max_examples=300)
@given(scn=trace_scenarios(), seed=st.integers(0, 2**32 - 1), run_key=st.sampled_from([0, 1000]))
@example(  # two floods with the same start over three tied sources, one of them empty
    scn=Scenario(benign=BenignSpec(period_s=2e-9, num_sources=3),
                 floods=[FloodSpec(1e-9, 2e-9, 2e10), FloodSpec(1e-9, 1e-9, 1.0), FloodSpec(0.0, 3e-9, 1e10)],
                 horizon_s=8e-9),
    seed=3, run_key=0,
)
@example(  # the background's last period ends just below the bound of one source, 2**62 ns
    scn=Scenario(benign=BenignSpec(period_s=2**61 / NS_PER_S * (1 - 2**-20)),
                 floods=[FloodSpec(0.0, 1.0, 10.0)], horizon_s=2**61 / NS_PER_S),
    seed=5, run_key=0,
)
@example(  # the last period starts before the horizon, and its jitter carries it past that bound
    scn=Scenario(benign=BenignSpec(period_s=0.75 * 2**62 / NS_PER_S, jitter_fraction=0.9),
                 floods=[FloodSpec(0.0, 1.0, 10.0)], horizon_s=0.9 * 2**62 / NS_PER_S),
    seed=5, run_key=0,
)
@example(  # a flood across that bound
    scn=Scenario(benign=BenignSpec(period_s=1.0), floods=[FloodSpec(2**62 / NS_PER_S - 0.5, 1.0, 20.0)],
                 horizon_s=1.0),
    seed=5, run_key=0,
)
@example(  # a flood past the clock, with no background: its keys would fit int64
    scn=Scenario(benign=None, floods=[FloodSpec(9.19e9, 3e7, 1e-6)], horizon_s=1.0),
    seed=5, run_key=0,
)
def test_build_trace_matches_the_merge_of_reference_streams(scn, seed, run_key):
    rng = RngStream(seed, 0)
    calls = {"gen_trace": 0, "merge": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    try:
        want = reference_trace(scn, rng, run_key)
    except ValueError:
        # an arrival at or past the nanosecond clock is refused, not wrapped
        with pytest.raises(ValueError, match="time values must be below"):
            build_trace(scn, rng, run_key)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "gen_trace", counted("gen_trace", scenario.gen_trace))
        mp.setattr(scenario, "merge", counted("merge", scenario.merge))
        got = build_trace(scn, rng, run_key)
    for column in ("arrival_ns", "klass", "source_id"):
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column), strict=True)
    # the one sort takes every run with floods whose keys are sure to fit,
    # and no run with an arrival too late to pack beside its source
    bound_ns = 2 ** (63 - (scn.benign.num_sources if scn.benign else 0).bit_length())
    ends = [f.end_s for f in scn.floods] + ([scn.horizon_s + scn.benign.period_s] if scn.benign else [])
    if len(want) and want.arrival_ns[-1] >= bound_ns:
        assert calls["gen_trace"] == 0
    elif scn.floods and max(ends) * NS_PER_S < bound_ns * (1 - 1e-9):
        assert calls == {"gen_trace": 1, "merge": 0}
    if not scn.floods:
        assert calls["gen_trace"] == 0


def test_build_trace_memory_peak_per_packet():
    # congestion.cfg, 400 k packets, almost all from its one flood. The trace
    # holds 13 B/packet (int64 arrivals, int32 sources, uint8 classes); they
    # are drawn, converted and sorted in one buffer, with one block's
    # temporaries beside it (a merge of sorted streams peaked at 41)
    scn = load_scenario(SCENARIOS / "congestion.cfg")
    build_trace(scn, RngStream(scn.seed, 0), 1000)  # warm-up: one-time state stays out of the peak
    gc.collect()
    tracemalloc.start()
    try:
        trace = build_trace(scn, RngStream(scn.seed, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) > 390_000
    assert peak / len(trace) <= 16


def test_expected_attack_volume():
    scn = Scenario(
        benign=BenignSpec(period_s=0.01),
        floods=[
            FloodSpec(start_s=1.0, duration_s=2.0, rate_pps=1000.0),
            FloodSpec(start_s=5.0, duration_s=3.0, rate_pps=500.0),
        ],
        horizon_s=10.0,
    )
    assert expected_attack_packets(scn) == pytest.approx(4000.0)
    assert expected_attack_fraction(scn) == pytest.approx(3500.0 / 4000.0)

    quiet = Scenario(benign=BenignSpec(period_s=0.01), floods=[], horizon_s=10.0)
    assert expected_attack_packets(quiet) == 0.0
    assert expected_attack_fraction(quiet) == 0.0

    pure = Scenario(
        benign=None,
        floods=[FloodSpec(start_s=0.0, duration_s=1.0, rate_pps=100.0)],
        horizon_s=2.0,
    )
    assert expected_attack_fraction(pure) == 1.0
