"""Choosing the skip length m.

Dropping blind for m packets after each hostile window trades two costs
against each other. Small m means the detector runs often (overhead,
weighted beta); large m means more benign packets die in the drop ranges
and have to be re-sent and re-served (reprocessing, weighted alpha). The
closed form picks the minimum of that curve from the burst volume alone,
and a seeded Monte Carlo over full simulation runs confirms the curve
dips where the formula says it should.
"""

from pathlib import Path

from floodsim import (
    CostParams,
    brute_force_optimal,
    cost_report,
    expected_attack_fraction,
    expected_attack_packets,
    load_scenario,
    monte_carlo_cost,
    optimal_skip,
)
from floodsim.analysis import write_sweep_csv

scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "costsweep.cfg")
params = CostParams(
    alpha=scn.alpha,
    beta=scn.beta,
    attack_fraction=expected_attack_fraction(scn),
    test_time_s=scn.tau_s,
    window=scn.detector.window,
    expected_packets=expected_attack_packets(scn),
)

best = optimal_skip(params.window, params.beta_over_alpha, params.expected_packets)
print(f"burst volume E[X] = {params.expected_packets:.0f} packets, "
      f"window W = {params.window}, beta/alpha = {params.beta_over_alpha}")
print(f"closed-form optimum m* = {best}")
print(f"brute-force grid search = {brute_force_optimal(params)}")
print()

skips = sorted({max(1, round(best * f)) for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)})
print(f"{'m':>5} {'E[windows]':>11} {'overhead_s':>11} {'E[dropped]':>11} {'reproc_s':>10} {'total':>9}")
r = cost_report(params, skips)  # one report, an array per column
for i, m in enumerate(skips):
    tag = "  <- m*" if m == best else ""
    print(f"{m:>5} {r.expected_windows[i]:>11.1f} {r.overhead_s[i]:>11.3f} "
          f"{r.dropped[i]:>11.0f} {r.reprocessing_s[i]:>10.3f} {r.total[i]:>9.3f}{tag}")

out_dir = Path(__file__).resolve().parent / "out"
out_dir.mkdir(exist_ok=True)
write_sweep_csv(out_dir / "sweep.csv", skips, r)
print(f"\nwrote {out_dir / 'sweep.csv'}")
print()

# Monte Carlo check: realized cost over full simulation runs, common
# random numbers across the three m values so the comparison is paired.
print("Monte Carlo, 20 runs per m:")
for m in (best // 2, best, 2 * best):
    mc = monte_carlo_cost(scn, m, 20)
    print(f"  m = {mc.skip:3d}: mean cost {mc.mean_cost:.3f} "
          f"+- {mc.ci95_halfwidth:.3f} (95% CI)")
