"""Cost model of the mitigation: closed forms, sweeps, and Monte-Carlo
validation against the actual simulator.

Counting conventions. For a burst of X packets handled with window W and
skip m, the machine needs N = ceil((X - W)/(m + W)) windows beyond the one
that raised the alarm; with X random, E[N] ~ (E[X] - W)/(m + W) + 1/2.
Detector overhead is one window's worth of test time per such window,
Omega = N*tau*W. Total discards run delta = N*(m + W), overshooting X by
(m - W)/2 on average. The benign share of the discards must be reprocessed:
K ~ tau*W*[(1-f)*E[X]/W - 1/2 + m/(2W)], floor-clamped at zero. The total
C = alpha*K + beta*Omega trades the two against each other; see
mitigation.optimal_skip for the minimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_columns
from .detector import classify_stream  # unused: kept with run_mitigation for perfbench's tracer
from .mitigation import FixedSkip, optimal_skip, run_mitigation
from .model import ConfigError, RngStream, check_skip, to_ns
from .pipeline import drive_run


@dataclass
class CostParams:
    """Inputs of the closed-form cost model."""

    alpha: float             # weight of reprocessing time (benign casualties)
    beta: float              # weight of detector overhead time
    attack_fraction: float   # f: attack share of arrivals during the burst
    test_time_s: float       # tau: detector time per packet
    window: int              # W
    expected_packets: float  # E[X]: total arrivals during the burst

    def __post_init__(self):
        # written so that nan fails every check, and inf each bounded one
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ConfigError("alpha and beta must be positive and finite")
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ConfigError("attack_fraction must lie in [0, 1]")
        if not 0 < self.test_time_s < math.inf:
            raise ConfigError("test_time_s must be positive and finite")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if not 0 <= self.expected_packets < math.inf:
            raise ConfigError("expected_packets must be >= 0 and finite")

    @property
    def beta_over_alpha(self) -> float:
        return self.beta / self.alpha


@dataclass
class CostReport:
    """The closed form at one skip (float fields) or an array of skips (array
    fields of its shape); optimal is the closed-form minimizer either way."""

    expected_windows: float
    overhead_s: float
    dropped: float
    reprocessing_s: float
    total: float
    optimal: int


def exact_window_count(packets, window: int, skip):
    """Windows needed beyond the alarm window for a known burst of X packets:
    ceil((X - W)/(m + W)), zero when the burst fits one window."""
    x = np.asarray(packets, dtype=np.float64)
    m = np.asarray(skip, dtype=np.float64)
    n = np.ceil((x - window) / (m + window))
    n = np.where(x <= window, 0.0, n)
    if n.ndim == 0:
        return int(n)
    return n


def exact_drop_count(n_windows, window: int, skip):
    """delta = N*(m + W): total packets discarded over N mitigation windows."""
    return np.asarray(n_windows, dtype=np.float64) * (np.asarray(skip, dtype=np.float64) + window)


def cost_report(params: CostParams, skip) -> CostReport:
    """The closed form at skip m, a number or an array:

        E[N]     = max((E[X] - W)/(m + W) + 1/2, 0)
        E[Omega] = tau*W * E[N]
        E[delta] = max(E[X] + (m - W)/2, 0)
        E[K]     = tau*W * max((1-f)*E[X]/W - 1/2 + m/(2W), 0)
        C        = alpha*E[K] + beta*E[Omega]

    The clamps at zero cover bursts within one window and, for E[K], tiny
    benign shares at small skips.
    """
    m = np.asarray(skip, dtype=np.float64)
    w, ex, tau_w = params.window, params.expected_packets, params.test_time_s * params.window
    windows = np.maximum((ex - w) / (m + w) + 0.5, 0.0)
    overhead = tau_w * windows
    dropped = np.maximum(ex + (m - w) / 2.0, 0.0)
    bracket = (1.0 - params.attack_fraction) * ex / w - 0.5 + m / (2.0 * w)
    reprocessing = tau_w * np.maximum(bracket, 0.0)
    fields = [windows, overhead, dropped, reprocessing,
              params.alpha * reprocessing + params.beta * overhead]
    if m.ndim == 0:
        fields = [float(v) for v in fields]
    return CostReport(*fields, optimal_skip(w, params.beta_over_alpha, ex))


BRUTE_FORCE_SKIPS = 4096  # brute_force_optimal enumerates m = 1..BRUTE_FORCE_SKIPS


def brute_force_optimal(params: CostParams) -> int:
    """Integer argmin of the closed-form total over 1..BRUTE_FORCE_SKIPS, by enumeration."""
    skips = np.arange(1, BRUTE_FORCE_SKIPS + 1, dtype=np.float64)
    return int(skips[np.argmin(cost_report(params, skips).total)])


def sweep_skip(params: CostParams, skips) -> CostReport:
    """Closed-form cost table over skip values under the skip rule: one report of arrays."""
    skips = [check_skip(m, "skip") for m in skips]
    if not skips:
        raise ValueError("skip sweep needs at least one value")
    return cost_report(params, skips)


def write_sweep_csv(path, skips, report: CostReport) -> None:
    """Columns: m,EN,EOmega_s,Edelta,EK_s,total_cost; one row per skip of the
    report that sweep_skip returned for them."""
    write_columns(
        path,
        ["m", "EN", "EOmega_s", "Edelta", "EK_s", "total_cost"],
        [
            [str(int(m)) for m in skips],
            [format(v, ".6f") for v in report.expected_windows],
            [format(v, ".9f") for v in report.overhead_s],
            [format(v, ".6f") for v in report.dropped],
            [format(v, ".9f") for v in report.reprocessing_s],
            [format(v, ".9f") for v in report.total],
        ],
    )


@dataclass
class CostTrial:
    run: int
    stream_key: int
    realized_cost: float
    benign_dropped: int
    mitigation_windows: int


@dataclass
class McCost:
    skip: int
    trials: list
    mean_cost: float
    std_cost: float
    ci95_halfwidth: float


def _t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with integer df >= 1: Newton's method
    from the normal quantile on P(|T| <= t) = 0.95, the finite series in
    theta = atan(t/sqrt(df)) of Abramowitz & Stegun 26.7.3-4. That is concave
    in t > 0, so the iterates rise monotonically to the root."""
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - math.log(df * math.pi) / 2
    t = 1.959963984540054
    while True:
        theta = math.atan(t / math.sqrt(df))
        c2, term, terms = math.cos(theta) ** 2, 1.0, [1.0]
        for k in range(1 + df % 2, df - 2, 2):  # the series' ratios k/(k+1) cos^2
            term *= c2 * k / (k + 1)
            terms.append(term)
        p = math.sin(theta) * math.fsum(terms)
        if df % 2:
            p = 2 / math.pi * (theta + (math.cos(theta) * p if df > 1 else 0.0))
        step = (0.95 - p) / (2 * math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df)))
        t += step
        if abs(step) <= 1e-12 * t:
            return t


def monte_carlo_cost(scenario, skip: int, runs: int) -> McCost:
    """Realized mitigation cost over seeded runs of a one-flood scenario.

    Run r is pipeline.drive_run at key (r + 1) * 1000 of the (run.seed, 0)
    stream, the driver run_simulation calls at key 0, on the same verdict
    clock; keys shared across skip values give common random numbers, so
    sweep points are comparable. Outcomes under FixedSkip(skip) do not
    depend on the clock; a skip that is not an integer is a ConfigError.
    The run is then priced with the cost function at its realized
    quantities: X = arrivals during the flood interval, B = benign packets
    actually dropped, and N = windows tested in mitigation mode.
    Reprocessing charges B plus the commitment overhang delta - X, where
    delta = ceil((X-W)/(m+W)) * (m+W) prices the skipped spans at full
    length; the machine itself hands the last span back on the closing
    clear verdict, so counting only realized drops would hide the cost of
    over-skipping entirely. Rounded up to whole windows:

        cost = alpha * tau*W * ceil((B + max(0, delta - X)) / W)
             + beta * N * tau*W

    The README's sweep section gives the round-up's measured size.

    Aggregation uses math.fsum, so results do not depend on summation order.
    """
    scenario.validate()
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if len(scenario.floods) != 1:
        raise ConfigError("the cost experiment needs a scenario with exactly one flood")
    flood = scenario.floods[0]
    lo, hi = to_ns(flood.start_s), to_ns(flood.end_s)
    w, tau = scenario.detector.window, scenario.tau_s
    base = RngStream(scenario.seed, 0)
    trials: list[CostTrial] = []
    for r in range(runs):
        run_key = (r + 1) * 1000
        trace, res = drive_run(scenario, base, run_key, FixedSkip(skip))
        b, mwin = res.state.benign_dropped, res.state.mitigation_windows
        x_flood = int(np.searchsorted(trace.arrival_ns, hi, side="left")
                      - np.searchsorted(trace.arrival_ns, lo, side="left"))
        n_cover = exact_window_count(x_flood, w, skip)
        overhang = max(0, exact_drop_count(n_cover, w, skip) - x_flood)
        cost = (scenario.alpha * tau * w * math.ceil((b + overhang) / w)
                + scenario.beta * mwin * tau * w)
        trials.append(CostTrial(r, run_key, cost, b, mwin))
    costs = [t.realized_cost for t in trials]
    mean = math.fsum(costs) / runs
    if runs > 1:
        var = math.fsum((c - mean) ** 2 for c in costs) / (runs - 1)
        std = math.sqrt(var)
        ci = _t_quantile_975(runs - 1) * std / math.sqrt(runs)
    else:
        std = 0.0
        ci = float("inf")
    return McCost(skip, trials, mean, std, ci)


def write_monte_carlo_csv(path, results) -> None:
    """Columns: m,run,seed,realized_cost,benign_dropped,windows_tested.

    The seed column holds the run's stream key (combined with the scenario
    seed it pins the run's randomness); windows_tested counts the windows
    that bear overhead cost, i.e. those tested in mitigation mode.
    """
    rows = [(res.skip, t) for res in results for t in res.trials]
    write_columns(
        path,
        ["m", "run", "seed", "realized_cost", "benign_dropped", "windows_tested"],
        [
            [str(m) for m, _ in rows],
            [str(t.run) for _, t in rows],
            [str(t.stream_key) for _, t in rows],
            [format(t.realized_cost, ".9f") for _, t in rows],
            [str(t.benign_dropped) for _, t in rows],
            [str(t.mitigation_windows) for _, t in rows],
        ],
    )
