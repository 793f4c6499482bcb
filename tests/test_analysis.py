"""Closed-form cost model, its optimizer, and Monte-Carlo cross-checks."""
import csv
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from floodsim import (
    ConfigError,
    CostParams,
    RngStream,
    Scenario,
    brute_force_optimal,
    cost_report,
    monte_carlo_cost,
    optimal_skip,
)
from floodsim.analysis import (
    BRUTE_FORCE_SKIPS,
    _t_quantile_975,
    exact_drop_count,
    exact_window_count,
    sweep_skip,
    write_monte_carlo_csv,
    write_sweep_csv,
)
from floodsim.detector import DetectorModel, classify_stream
from floodsim.mitigation import FixedSkip, run_mitigation
from floodsim.model import STREAM_DETECTOR, InvariantViolation, substream
from floodsim.pipeline import drive_run
from floodsim.scenario import build_trace
from floodsim.traffic import BenignSpec, FloodSpec


def params_for(window=20, alpha=1.0, beta=0.05, f=0.9, tau=3e-3, ex=10805.0):
    return CostParams(
        alpha=alpha,
        beta=beta,
        attack_fraction=f,
        test_time_s=tau,
        window=window,
        expected_packets=ex,
    )


def one_flood_scenario():
    scn = Scenario(
        benign=BenignSpec(period_s=0.01),
        floods=[FloodSpec(start_s=2.0, duration_s=5.0, rate_pps=2000.0)],
        detector=DetectorModel(window=20),
        seed=1,
        horizon_s=10.0,
    )
    scn.validate()
    return scn


def test_params_validation():
    for bad in [
        dict(alpha=0.0),
        dict(beta=-1.0),
        dict(f=1.5),
        dict(tau=0.0),
        dict(window=0),
        dict(ex=-1.0),
    ]:
        with pytest.raises(ConfigError):
            params_for(**bad)
    assert params_for(alpha=2.0, beta=0.5).beta_over_alpha == 0.25


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["alpha", "beta", "tau", "ex"])
def test_params_refuse_nan_and_inf(field, value):
    with pytest.raises(ConfigError):
        params_for(**{field: value})


def test_exact_window_count():
    assert exact_window_count(1000, 20, 100) == 9
    assert isinstance(exact_window_count(1000, 20, 100), int)
    assert exact_window_count(21, 20, 100) == 1
    assert exact_window_count(20, 20, 100) == 0
    assert exact_window_count(3, 20, 100) == 0
    np.testing.assert_array_equal(
        exact_window_count(np.array([20, 21, 1000]), 20, 100), [0.0, 1.0, 9.0]
    )


def test_expected_window_count():
    def en(ex, m):
        return cost_report(params_for(ex=ex), m).expected_windows

    assert en(1000.0, 100) == pytest.approx(980 / 120 + 0.5)
    assert en(10805.0, 127) == pytest.approx(10785 / 147 + 0.5)
    # the first-order term vanishes as the burst shrinks toward one window
    assert en(20.0 + 1e-9, 100) == pytest.approx(0.5, abs=1e-9)
    # a burst within one window clamps the count at 0, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert en(0.0, 1) == 0.0


def test_expected_overhead():
    p = params_for()
    assert cost_report(p, 100).overhead_s == pytest.approx(0.06 * (10785 / 120 + 0.5), rel=1e-12)
    # strictly decreasing in the skip: longer leaps mean fewer tested windows
    ms = np.arange(1, 501, dtype=float)
    vals = cost_report(p, ms).overhead_s
    assert np.all(np.diff(vals) < 0)


def test_drop_counts():
    assert float(exact_drop_count(9, 20, 100)) == 1080.0
    np.testing.assert_array_equal(exact_drop_count(np.array([0, 2]), 20, 100), [0.0, 240.0])
    assert cost_report(params_for(ex=1000.0), 20).dropped == 1000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cost_report(params_for(ex=5.0), 1).dropped == 0.0


def test_expected_reprocessing():
    p = params_for(ex=1000.0)
    assert cost_report(p, 100).reprocessing_s == pytest.approx(0.42, rel=1e-12)
    # all-attack burst, skip equal to the window: nothing benign to re-serve
    assert cost_report(params_for(f=1.0, ex=1000.0), 20).reprocessing_s == 0.0
    assert cost_report(params_for(f=1.0, ex=1000.0), 10).reprocessing_s == 0.0
    # each extra skipped packet costs half a test on average
    slope = cost_report(p, 101).reprocessing_s - cost_report(p, 100).reprocessing_s
    assert slope == pytest.approx(3e-3 / 2, rel=1e-12)


def test_total_cost_combines_terms():
    p = params_for(alpha=2.0, beta=0.3)
    for m in (1, 50, 127, 400):
        rep = cost_report(p, m)
        want = 2.0 * rep.reprocessing_s + 0.3 * rep.overhead_s
        assert rep.total == pytest.approx(want, rel=1e-12)


def test_cost_report_carries_optimum():
    rep = cost_report(params_for(), 100)
    assert rep.optimal == 127
    # a burst within one window gets skip 1, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = cost_report(params_for(ex=10.0), 5)
    assert tiny.optimal == 1


def test_brute_force_agrees_with_closed_form():
    got = brute_force_optimal(params_for())
    assert abs(got - 127) <= 2
    # an optimum past the grid ends the search at its last point
    assert optimal_skip(20, 0.05, 1e9) > BRUTE_FORCE_SKIPS
    assert brute_force_optimal(params_for(ex=1e9)) == BRUTE_FORCE_SKIPS


def test_cost_stationary_at_continuous_optimum():
    p = params_for()
    x = math.sqrt(2.0 * p.beta_over_alpha * p.window * (p.expected_packets - p.window)) - p.window
    h = x * 1e-3
    deriv = (cost_report(p, x + h).total - cost_report(p, x - h).total) / (2 * h)
    assert abs(deriv) <= 1e-6 * cost_report(p, x).total / x


def test_optimum_scales_with_root_of_volume():
    # (m* + W) grows by sqrt(2) when the burst beyond one window doubles
    s1 = optimal_skip(20, 0.05, 10805.0) + 20
    s2 = optimal_skip(20, 0.05, 21590.0) + 20
    assert abs(s2 - math.sqrt(2.0) * s1) <= 2


def test_optimal_skip_needs_no_other_knobs():
    # the benign fraction and the per-test time cancel in the optimality
    # condition, so the optimizer must not ask for them
    assert tuple(inspect.signature(optimal_skip).parameters) == (
        "window",
        "beta_over_alpha",
        "expected_packets",
    )


def test_window_count_expectation_under_poisson_volume():
    rng = np.random.default_rng(2024)
    draws = rng.poisson(1000.0, 10_000)
    n = exact_window_count(draws, 20, 100)
    rep = cost_report(params_for(ex=1000.0), 100)
    en = rep.expected_windows
    assert abs(n.mean() - en) / en < 0.02

    d = exact_drop_count(n, 20, 100)
    ed = rep.dropped
    assert ed == 1040.0
    assert abs(d.mean() - ed) / ed < 0.02
    np.testing.assert_allclose(d, n * 120.0)


def test_reprocessing_formula_tracks_simulated_benign_drops():
    # an attack burst with a 10% benign share; the machine's realized benign
    # casualties, priced in whole windows, should sit within a few percent of
    # the first-order formula
    scn = Scenario(
        benign=BenignSpec(period_s=1.0 / 210.0),
        floods=[FloodSpec(start_s=2.0, duration_s=5.0, rate_pps=1890.0)],
        detector=DetectorModel(tpr=1.0, tnr=1.0, window=20),
        seed=404,
        horizon_s=10.0,
    )
    scn.validate()
    tau, w, m = 3e-3, 20, 100
    params = CostParams(
        alpha=1.0,
        beta=0.05,
        attack_fraction=0.9,
        test_time_s=tau,
        window=w,
        expected_packets=10500.0,
    )
    formula = cost_report(params, m).reprocessing_s
    assert formula == pytest.approx(3.27, rel=1e-12)

    rng = RngStream(scn.seed, 0)
    tot = 0.0
    runs = 1000
    for r in range(runs):
        trace = build_trace(scn, rng, (r + 1) * 1000)
        res = run_mitigation(trace, scn.detector, FixedSkip(m), labels=trace.klass)
        tot += tau * w * math.ceil(res.state.benign_dropped / w)
    mean = tot / runs
    assert abs(mean - formula) / formula < 0.05


def test_sweep_skip():
    p = params_for()
    skips = [50, 100, 200]
    table = sweep_skip(p, skips)
    assert table.total.shape == (3,)
    assert table.optimal == 127
    for i, m in enumerate(skips):
        assert table.total[i] == pytest.approx(cost_report(p, m).total)
    with pytest.raises(ValueError):
        sweep_skip(p, [])
    with pytest.raises(ConfigError, match="integer"):
        sweep_skip(p, [125.9])  # not skip 125 under another name


@pytest.mark.parametrize("ex", [10.0, 10805.0])
def test_sweep_equals_scalar_reports_bit_for_bit(ex):
    # one evaluator for both shapes: each array entry of the sweep holds the
    # very float the scalar report gives, at m <= W = 20, at m* (127 for the
    # larger burst, 1 for the smaller) and at 2**62
    p = params_for(ex=ex)
    skips = [1, 7, 20, 127, 2**62]
    table = sweep_skip(p, skips)
    for i, m in enumerate(skips):
        one = cost_report(p, m)
        for name in ("expected_windows", "overhead_s", "dropped", "reprocessing_s", "total"):
            got, want = getattr(table, name)[i], getattr(one, name)
            assert type(want) is float
            assert float(got).hex() == want.hex(), (m, name)
        assert table.optimal == one.optimal


def test_write_sweep_csv(tmp_path):
    p = params_for()
    skips = [50, 100]
    table = sweep_skip(p, skips)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, skips, table)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "EN", "EOmega_s", "Edelta", "EK_s", "total_cost"]
    assert len(rows) == 3
    assert rows[1][0] == "50"
    assert float(rows[1][5]) == pytest.approx(table.total[0], abs=1e-8)


def test_monte_carlo_cost_is_reproducible():
    scn = one_flood_scenario()
    a = monte_carlo_cost(scn, 125, 1)
    b = monte_carlo_cost(scn, 125, 1)
    assert a.mean_cost == b.mean_cost
    assert a.std_cost == 0.0
    assert math.isinf(a.ci95_halfwidth)
    assert a.trials[0].stream_key == 1000
    # run r is the driver's run at key (r + 1) * 1000 of the scenario's
    # (run.seed, 0) stream: its labels come from that key's detector stream,
    # and a detector this noisy makes the outcomes depend on which one
    scn = dataclasses.replace(scn, seed=7, detector=DetectorModel(tpr=0.75, tnr=0.75, window=20))
    for r, trial in enumerate(monte_carlo_cost(scn, 125, 2).trials):
        base = RngStream(7, 0)
        assert trial.stream_key == (r + 1) * 1000
        trace, res = drive_run(scn, base, trial.stream_key, FixedSkip(125))
        assert (trial.benign_dropped, trial.mitigation_windows) == (
            res.state.benign_dropped, res.state.mitigation_windows)
        np.testing.assert_array_equal(trace.arrival_ns,
                                      build_trace(scn, base, trial.stream_key).arrival_ns)
        labels = classify_stream(trace.klass, scn.detector,
                                 substream(base, trial.stream_key + STREAM_DETECTOR))
        by_hand = run_mitigation(trace, scn.detector, FixedSkip(125), labels=labels)
        np.testing.assert_array_equal(res.outcomes, by_hand.outcomes)
        assert dataclasses.asdict(res.state) == dataclasses.asdict(by_hand.state)


def test_monte_carlo_cost_argument_errors():
    scn = one_flood_scenario()
    with pytest.raises(ValueError):
        monte_carlo_cost(scn, 125, 0)
    two = Scenario(
        benign=BenignSpec(period_s=0.01),
        floods=[
            FloodSpec(start_s=1.0, duration_s=1.0, rate_pps=500.0),
            FloodSpec(start_s=5.0, duration_s=1.0, rate_pps=500.0),
        ],
        horizon_s=10.0,
    )
    with pytest.raises(ConfigError):
        monte_carlo_cost(two, 125, 2)


def test_monte_carlo_cost_refuses_a_fractional_skip():
    # truncated, 125.9 would price skip 125 under another name
    with pytest.raises(ConfigError, match="integer"):
        monte_carlo_cost(one_flood_scenario(), 125.9, 1)


def test_monte_carlo_cost_validates_the_scenario():
    # the same scenario rules as run_simulation, before any run is priced
    scn = one_flood_scenario()
    with pytest.raises(InvariantViolation, match="does not cover"):
        monte_carlo_cost(dataclasses.replace(scn, horizon_s=3.0), 125, 2)
    with pytest.raises(ConfigError, match="run.seed"):
        monte_carlo_cost(dataclasses.replace(scn, seed=-5), 125, 2)


# scipy.stats.t.ppf(0.975, df), recorded so the check holds without scipy
T_975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    3: 3.1824463052837078,
    10: 2.228138851986274,
    30: 2.0422724563012378,
    99: 1.9842169515864174,
    1000: 1.9623390808264083,
}


@pytest.mark.parametrize("df", sorted(T_975))
def test_t_quantile_matches_recorded_values(df):
    assert _t_quantile_975(df) == pytest.approx(T_975[df], rel=1e-12, abs=0)


def test_t_quantile_matches_scipy_over_df_1_to_10000():
    stats = pytest.importorskip("scipy.stats")
    # every df to 1000, then every 250th: the series has df/2 terms, so the
    # whole range takes ~17 s on one core; df 1-10000 all agree within 6.4e-13
    dfs = list(range(1, 1001)) + list(range(1250, 10001, 250))
    want = stats.t.ppf(0.975, dfs)
    got = np.array([_t_quantile_975(df) for df in dfs])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_monte_carlo_interval_is_the_t_interval():
    scn = one_flood_scenario()
    mc = monte_carlo_cost(scn, 125, 4)
    assert mc.ci95_halfwidth == pytest.approx(T_975[3] * mc.std_cost / 2, rel=1e-12)


def test_monte_carlo_interval_narrows_with_runs():
    scn = one_flood_scenario()
    mc30 = monte_carlo_cost(scn, 125, 30)
    mc120 = monte_carlo_cost(scn, 125, 120)
    # identical run keys: the longer experiment extends the shorter one
    assert [t.realized_cost for t in mc120.trials[:30]] == [
        t.realized_cost for t in mc30.trials
    ]
    ratio = mc30.ci95_halfwidth / mc120.ci95_halfwidth
    assert 1.4 <= ratio <= 2.9


def test_write_monte_carlo_csv(tmp_path):
    scn = one_flood_scenario()
    results = [
        monte_carlo_cost(scn, 50, 2),
        monte_carlo_cost(scn, 125, 2),
    ]
    path = tmp_path / "mc.csv"
    write_monte_carlo_csv(path, results)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "run", "seed", "realized_cost", "benign_dropped", "windows_tested"]
    assert len(rows) == 5
    assert rows[1][:3] == ["50", "0", "1000"]
    assert rows[2][:3] == ["50", "1", "2000"]
    assert float(rows[3][3]) == pytest.approx(results[1].trials[0].realized_cost, abs=1e-8)
