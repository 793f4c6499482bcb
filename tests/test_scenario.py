"""Scenario parsing, validation, and seeded trace assembly."""
import dataclasses

import numpy as np
import pytest

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
from floodsim.scenario import build_trace
from floodsim.traffic import BenignSpec, FloodSpec

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
