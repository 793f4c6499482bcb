"""Whole-library acceptance checks.

One test per headline behavior, each printing a PASS/FAIL line with the
measured numbers (visible under pytest -s; pytest -v reports per-test
status either way). Tolerances are pinned in the assertions.
"""
import dataclasses
import math
import statistics
import time
from pathlib import Path

import numpy as np

from floodsim import (
    NORMAL_ALWAYS,
    RngStream,
    Scenario,
    ServiceTimeModel,
    brute_force_optimal,
    cost_report,
    expected_attack_fraction,
    expected_attack_packets,
    forward_times,
    load_scenario,
    monte_carlo_cost,
    optimal_skip,
    run_simulation,
    simulate_server,
    to_ns,
)
from floodsim.analysis import (
    CostParams,
    _t_quantile_975,
    exact_drop_count,
    exact_window_count,
)
from floodsim.cli import main
from floodsim.detector import DetectorModel
from floodsim.mitigation import FixedSkip, run_mitigation
from floodsim.model import Trace
from floodsim.traffic import BenignSpec, FloodSpec, gen_flood
from oracles import (
    fcfs_waits_event_driven,
    floored_normal_moments,
    grid_points_within,
    md1_mean_wait,
    mg1_mean_wait,
    occupancy_integral,
    poisson_expected_windows,
    step_through_machine,
    t_central_quantile,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_pacing_gap_above_service_ceiling_eliminates_waits():
    t0 = time.perf_counter()
    trace = gen_flood(FloodSpec(start_s=0.0, duration_s=60.0, rate_pps=2000.0), RngStream(101, 0))
    n = len(trace)
    model = ServiceTimeModel(ceiling_s=3.1e-3)

    wide = simulate_server(
        forward_times(trace.arrival_ns, to_ns(3.2e-3)), model, NORMAL_ALWAYS, RngStream(102, 0)
    )
    max_wide = int(wide.wait_ns.max())

    narrow = simulate_server(
        forward_times(trace.arrival_ns, to_ns(2.7e-3)), model, NORMAL_ALWAYS, RngStream(102, 0)
    )
    max_narrow = int(narrow.wait_ns.max())
    _, counts = narrow.queue_timeline(to_ns(0.1))
    mean_queue = float(counts.mean())

    elapsed = time.perf_counter() - t0
    report(
        "gap above the service ceiling: zero server waits; below: a queue",
        n >= 100_000
        and max_wide == 0
        and max_narrow > 0
        and mean_queue > 1.0
        and elapsed < 10.0,
        f"n={n} max_wait@3.2ms={max_wide} max_wait@2.7ms={max_narrow} "
        f"mean_queue={mean_queue:.1f} {elapsed:.1f}s",
    )


def test_wait_recursion_matches_event_driven_simulation():
    # service times of mean 3 ms and sd 2 ms (floored at 0.03 ms) against
    # arrivals 0-5 ms apart: queues build and drain, and every wait must
    # equal the event loop's
    model = ServiceTimeModel(mean_normal_s=3e-3, var_normal_s2=4e-6)
    rng = np.random.default_rng(7)
    bad = queued = 0
    for k in range(1000):
        n = int(rng.integers(1, 201))
        arr = np.cumsum(rng.integers(0, 5_000_000, n)).astype(np.int64)
        out = simulate_server(arr, model, NORMAL_ALWAYS, RngStream(7, k))
        bad += not np.array_equal(out.wait_ns, fcfs_waits_event_driven(arr, out.service_ns))
        queued += int((out.wait_ns > 0).sum())
    report(
        "simulate_server's FCFS waits equal an event-driven reference exactly",
        bad == 0 and queued > 0,
        f"mismatches={bad}/1000 positive_waits={queued}",
    )


def batch_mean_interval(waits_ns, t_quantile: float, batches: int = 20) -> tuple[float, float]:
    """Mean wait in seconds and the half-width t_quantile * s / sqrt(batches)
    of the means of `batches` consecutive batches of the stream, for a t
    quantile with batches - 1 degrees of freedom."""
    means = [float(b.mean()) / 1e9 for b in np.array_split(waits_ns, batches)]
    half = t_quantile * statistics.stdev(means) / math.sqrt(batches)
    return statistics.fmean(means), half


def test_poisson_waits_match_pollaczek_khinchine():
    # Poisson floods of about 200 k packets: the shaper is an M/D/1 queue
    # with service D, the server in the normal regime an M/G/1 queue whose
    # draws are normals floored at mean/100, taken with that floor's exact
    # moments. Bonferroni's correction holds the four intervals to a 5 %
    # family-wise miss rate, each a 1 - 0.05/4 interval; it needs no
    # independence, and both server cases draw one service stream.
    cases = []
    gap_s = 0.25e-3
    for k, rho in enumerate((0.5, 0.75)):
        rate = rho / gap_s
        flood = gen_flood(FloodSpec(0.0, 2e5 / rate, rate), RngStream(1, k))
        delay = forward_times(flood.arrival_ns, to_ns(gap_s)) - flood.arrival_ns
        cases.append((f"shaper M/D/1 rho={rho}", delay, md1_mean_wait(rate, gap_s)))
    mean_s, sd_s = 0.2e-3, 0.1e-3
    model = ServiceTimeModel(mean_normal_s=mean_s, var_normal_s2=sd_s**2)
    first, second = floored_normal_moments(mean_s, sd_s**2, mean_s / 100)
    for k, rho in enumerate((0.4, 0.6), start=2):
        rate = rho / mean_s
        flood = gen_flood(FloodSpec(0.0, 2e5 / rate, rate), RngStream(1, k))
        served = simulate_server(flood.arrival_ns, model, NORMAL_ALWAYS, RngStream(1, 4))
        cases.append((f"server M/G/1 rho={rho}", served.wait_ns,
                      mg1_mean_wait(rate, first, second - first**2)))
    t_quantile = t_central_quantile(1 - 0.05 / len(cases), 19)  # 20 batches
    for name, waits, formula in cases:
        mean, half = batch_mean_interval(waits, t_quantile)
        report(
            f"{name}: the mean wait's 98.75 % interval holds the Pollaczek-Khinchine value",
            len(waits) > 190_000 and abs(mean - formula) <= half,
            f"n={len(waits)} mean={mean:.4e}+-{half:.1e} s formula={formula:.4e} s",
        )


def test_littles_law_holds_exactly_at_the_shaper_and_the_server():
    # over a whole run of each golden scenario, and at each stage: the
    # sojourns sum to the time integral of the occupancy, exactly in integer
    # ns; the sampled timeline counts each packet once per grid instant in its
    # stay, so its Riemann sum is within one grid step per packet of that
    # integral. A packet leaves the shaper at its emission, or at the verdict
    # that dropped it.
    ok, details = True, []
    for name in ("congestion", "costsweep", "dualflood", "noflood", "result1"):
        res = run_simulation(load_scenario(SCENARIOS / f"{name}.cfg"))
        dt = to_ns(res.scenario.sample_dt_s)
        mit, srv = res.mitigation, res.server
        shaper_exit = res.emit_ns if mit is None else np.where(res.emit_ns < 0, mit.drop_time_ns, res.emit_ns)
        stages = {
            "shaper": (res.trace.arrival_ns, shaper_exit, res.sqf_timeline),
            "server": (srv.arrival_ns, srv.departure_ns, res.server_timeline),
        }
        for stage, (entry, exits, (_, counts)) in stages.items():
            sojourns = int((exits - entry).sum())
            integral = occupancy_integral(entry, exits)
            riemann = int(counts.sum()) * dt
            ok &= (
                sojourns == integral
                and int(counts.sum()) == int(grid_points_within(entry, exits, dt).sum())
                and abs(riemann - integral) <= len(entry) * dt
            )
            off = (riemann - integral) / max(1, len(entry)) / dt
            details.append(f"{name} {stage}: {len(entry)} packets, sojourns {sojourns / 1e9:.6g} s, "
                           f"Riemann sum {off:+.3f} steps per packet off")
    report("Little's law: sojourns sum to the occupancy integral; the timeline is within a step",
           ok, "; ".join(details))


def test_skip_machine_walk_matches_reference_and_count_formula():
    klass = np.array([1] * 1000 + [0] * 200, np.uint8)
    trace = Trace(
        np.arange(1200, dtype=np.int64) * 1_000_000, klass, np.zeros(1200, np.int32)
    )
    res = run_mitigation(
        trace, DetectorModel(tpr=1.0, tnr=1.0, window=20), FixedSkip(100), labels=klass
    )
    ref = step_through_machine(list(klass), 20, 100, klass=list(klass))

    fate_map = {0: "tested", 1: "fwd", 2: "drop"}
    walk_ok = (
        [fate_map[int(o)] for o in res.outcomes] == ref["fate"]
        and res.state.windows_tested == ref["windows_tested"] == 15
        and res.state.packets_dropped == ref["dropped"] == 972
    )
    attacks = int(res.events.is_kind("WINDOW_ATTACK").sum())
    n_formula = exact_window_count(1000, 20, 100)
    delta = float(exact_drop_count(n_formula, 20, 100))
    formula_ok = (
        attacks == n_formula == 9
        and res.state.mitigation_windows == 9
        and 0 <= delta - res.state.packets_dropped <= 120
    )
    report(
        "skip machine reproduces the hand walk and the window-count formula",
        walk_ok and formula_ok,
        f"windows={res.state.windows_tested} attacks={attacks} "
        f"dropped={res.state.packets_dropped} delta={delta:.0f}",
    )


def test_grid_search_confirms_closed_form_optimum_everywhere():
    t0 = time.perf_counter()
    worst = 0
    corners = []
    for w in (8, 9, 10, 20):
        for ratio in (0.01, 0.05, 0.2):
            for ex in (1.0e3, 1.0e4, 1.0e5):
                params = CostParams(
                    alpha=1.0,
                    beta=ratio,
                    attack_fraction=0.9,
                    test_time_s=3.0e-3,
                    window=w,
                    expected_packets=ex,
                )
                brute = brute_force_optimal(params)
                closed = optimal_skip(w, ratio, ex)
                gap = abs(brute - closed)
                if gap > worst:
                    worst = gap
                    corners = [w, ratio, ex, brute, closed]
    elapsed = time.perf_counter() - t0
    report(
        "closed-form skip matches 4096-point grid search across 36 corners",
        worst <= 2 and elapsed < 1.0,
        f"worst_gap={worst} at {corners} {elapsed:.2f}s",
    )


def test_closed_form_skip_reference_points():
    a = optimal_skip(20, 0.05, 10805.0)
    b = optimal_skip(20, 0.05, 35932.0)
    report(
        "closed-form skip reference points",
        a == 127 and b == 248,
        f"m(10805)={a} m(35932)={b}",
    )


def test_monte_carlo_cost_curve_dips_at_closed_form_optimum():
    t0 = time.perf_counter()
    scn = Scenario(
        benign=BenignSpec(period_s=0.01),
        floods=[FloodSpec(start_s=2.0, duration_s=5.0, rate_pps=2000.0)],
        detector=DetectorModel(window=20),
        seed=1,
        horizon_s=10.0,
    )
    scn.validate()
    best = optimal_skip(20, 0.05, 10500.0)
    assert best == 125
    grid = [44, 62, 88, 125, 177, 250, 354]

    means = [monte_carlo_cost(scn, m, 30).mean_cost for m in grid]

    # fit the cost shape a + b*m + c/(m+W): reprocessing grows linearly,
    # overhead decays with the stride
    g = np.array(grid, float)
    design = np.column_stack([np.ones_like(g), g, 1.0 / (g + 20.0)])
    (a, b, c), *_ = np.linalg.lstsq(design, np.array(means), rcond=None)
    shape_ok = b > 0 and c > 0
    m_hat = math.sqrt(c / b) - 20.0 if shape_ok else float("nan")

    argmin = int(np.argmin(means))
    interior = 0 < argmin < len(grid) - 1
    at_best = means[grid.index(125)]
    ratio = at_best / min(means)
    elapsed = time.perf_counter() - t0
    report(
        "Monte-Carlo cost curve bottoms out near the closed-form skip",
        shape_ok
        and interior
        and abs(m_hat - 125.0) <= 31.25
        and ratio <= 1.10
        and elapsed < 60.0,
        f"m_hat={m_hat:.1f} argmin_m={grid[argmin]} cost@125/min={ratio:.3f} {elapsed:.1f}s",
    )


def test_paired_costs_rise_on_both_sides_of_the_closed_form_skip():
    # run r of every skip draws the same traffic and labels, so the paired
    # differences C_r(m) - C_r(m*) shed the flood volume's own spread, which
    # hides these gaps from unpaired means at this many runs
    t0 = time.perf_counter()
    scn = load_scenario(SCENARIOS / "costsweep.cfg")
    runs = 200
    best = optimal_skip(scn.detector.window, scn.beta / scn.alpha, expected_attack_packets(scn))
    assert best == 125
    base = monte_carlo_cost(scn, best, runs).trials
    t975 = _t_quantile_975(runs - 1)
    ok, detail = True, []
    for m in (80, 240):
        trials = monte_carlo_cost(scn, m, runs).trials
        diffs = [a.realized_cost - b.realized_cost for a, b in zip(trials, base)]
        mean = math.fsum(diffs) / runs
        half = t975 * statistics.stdev(diffs) / math.sqrt(runs)
        ok = ok and mean - half > 0  # positive, and its 95% CI excludes 0
        detail.append(f"C({m})-C({best})={mean:+.3f}+-{half:.3f}")
    elapsed = time.perf_counter() - t0
    report(
        "Paired Monte Carlo costs rise on both sides of the closed-form skip",
        ok and elapsed < 60.0,
        f"{' '.join(detail)} {elapsed:.1f}s",
    )


def test_window_count_expectation_under_random_volume():
    rng = np.random.default_rng(2024)
    draws = rng.poisson(1000.0, 10_000)
    mean_n = float(exact_window_count(draws, 20, 100).mean())
    params = CostParams(alpha=1.0, beta=0.05, attack_fraction=0.9, test_time_s=3.0e-3,
                        window=20, expected_packets=1000.0)
    formula = cost_report(params, 100).expected_windows
    rel = abs(mean_n - formula) / formula
    report(
        "first-order window-count expectation holds under Poisson volume",
        rel < 0.02,
        f"mean={mean_n:.4f} formula={formula:.4f} rel={rel:.4%}",
    )

# cost_report's (E[X] - W)/(m + W) + 1/2 less the exact E[N], largest over
# costsweep.cfg's default sweep grid; the README cost section cites it
FIRST_ORDER_WINDOW_ERROR = 0.0191  # windows, at m = 250


def test_first_order_window_count_error_over_the_sweep_grid(tmp_path):
    # the exact E[ceil((X - W)/(m + W))] for Poisson X at the E[X] cost_report
    # uses, on the skips `sweep` picks: the first order is high by 1/(2(m + W))
    # from X's integer lattice, plus a ripple once m + W outgrows X's spread
    cfg = SCENARIOS / "costsweep.cfg"
    assert main(["sweep", "--scenario", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    skips = [int(row.split(",")[0]) for row in rows]
    scn = load_scenario(cfg)
    ex, w = expected_attack_packets(scn), scn.detector.window
    params = CostParams(scn.alpha, scn.beta, expected_attack_fraction(scn), scn.tau_s, w, ex)
    first = cost_report(params, skips).expected_windows
    errors = {m: f - poisson_expected_windows(ex, w, m) for m, f in zip(skips, first)}
    worst = max(errors, key=lambda m: abs(errors[m]))
    # the oracle against the library's exact count of Poisson draws, within 4 SE
    counts = exact_window_count(np.random.default_rng(8).poisson(ex, 100_000), w, worst)
    se = counts.std() / math.sqrt(len(counts))
    report(
        "first-order window count vs the exact Poisson expectation on the sweep grid",
        skips == [31, 62, 94, 125, 188, 250, 375]
        and worst == 250
        and abs(errors[worst] - FIRST_ORDER_WINDOW_ERROR) < 5e-5
        and abs(counts.mean() - poisson_expected_windows(ex, w, worst)) < 4 * se,
        " ".join(f"m={m}:{e:+.5f}" for m, e in errors.items()),
    )


def test_shaper_absorbs_congestion_and_drains_linearly():
    scn = load_scenario(SCENARIOS / "congestion.cfg")
    lo, hi = to_ns(20.0), to_ns(80.0)

    raw = run_simulation(dataclasses.replace(scn, sqf_enabled=False, aam_enabled=False))
    x = int(
        np.searchsorted(raw.trace.arrival_ns, hi, "left")
        - np.searchsorted(raw.trace.arrival_ns, lo, "left")
    )
    raw_ratio = raw.summary["server_peak_queue"] / x

    shaped = run_simulation(scn)
    sqf_ratio = shaped.summary["sqf_peak_queue"] / x

    times, counts = shaped.sqf_timeline
    ts = times / 1e9
    seg = (ts >= 90.0) & (ts <= 390.0)
    slope, _ = np.polyfit(ts[seg], counts[seg].astype(float), 1)
    drain = 1.0 / scn.pacing_gap_s
    slope_rel = abs(slope + drain) / drain

    report(
        "unshaped flood piles up at the server; shaped, it queues at the "
        "gateway and drains at the pacing rate",
        raw_ratio >= 0.9
        and shaped.summary["server_peak_queue"] <= 10
        and sqf_ratio >= 0.5
        and slope_rel < 0.01,
        f"X={x} raw_server_peak={raw.summary['server_peak_queue']} "
        f"shaped_server_peak={shaped.summary['server_peak_queue']} "
        f"sqf_peak={shaped.summary['sqf_peak_queue']} "
        f"slope={slope:.2f}/s vs -{drain:.2f}/s ({slope_rel:.3%})",
    )


def test_adaptive_skip_scales_with_flood_size():
    # the skip set at each attack verdict, from the block records (an adaptive
    # attack block is one window), split by flood. At its first verdict each
    # flood's queue estimate is small and both skips may be 1; from the
    # second verdict on the larger flood's skip must be the longer at every
    # verdict index the two floods share. RECALC_M rows would not do: one is
    # logged only when the skip changes, so a flood whose first skip equals
    # the one left from the flood before logs its second as its first.
    res = run_simulation(load_scenario(SCENARIOS / "dualflood.cfg"))
    verdicts = [(int(now[0]), after) for attack, *_, after, _, _, now in res.mitigation.blocks if attack]
    split = to_ns(25.0)
    first = [m for t, m in verdicts if t < split]
    second = [m for t, m in verdicts if t >= split]
    pairs = list(zip(first, second))
    ok = (
        bool(first)
        and bool(second)
        and second[0] >= first[0]
        and all(b > a for a, b in pairs[1:])
        and max(second) > max(first)
        and res.summary["server_peak_queue"] <= 25
    )
    report(
        "the recomputed skip grows with the larger flood",
        ok,
        f"first_flood_m verdicts={len(first)} first={first[:1]} max={max(first, default=None)} "
        f"second_flood_m verdicts={len(second)} first={second[:1]} max={max(second, default=None)} "
        f"shorter_or_equal_after_first={sum(b <= a for a, b in pairs[1:])} "
        f"server_peak={res.summary['server_peak_queue']}",
    )
