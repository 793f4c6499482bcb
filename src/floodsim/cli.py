"""Command line front end; the --scenario file alone configures a run.

Subcommands:
  simulate   run one scenario end to end and write its CSV outputs
  sweep      cost-vs-skip table, analytic and (with --runs) Monte-Carlo
  optimal-m  print the closed-form skip length and its cost breakdown

Exit codes: 0 ok, 2 configuration problem, 3 run invariant violated.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .analysis import (
    CostParams,
    brute_force_optimal,
    cost_report,
    monte_carlo_cost,
    sweep_skip,
    write_monte_carlo_csv,
    write_sweep_csv,
)
from .mitigation import optimal_skip
from .model import ConfigError, InvariantViolation, check_skip
from .pipeline import run_simulation, write_outputs
from .scenario import (
    Scenario,
    expected_attack_fraction,
    expected_attack_packets,
    load_scenario,
)

# caps runs x skips x packets per run: work, not memory (one trial at a time)
MAX_TRIAL_PACKETS = 10**9


def _parse_skip_list(raw: str) -> list[int]:
    try:
        skips = sorted({int(part) for part in raw.split(",") if part.strip()})
    except ValueError as exc:
        raise ConfigError(f"--m expects integers separated by commas: {raw!r}") from exc
    if not skips:
        raise ConfigError("--m needs at least one skip length")
    return [check_skip(m, "--m") for m in skips]


def _out_dir(raw: str) -> Path:
    """The --out directory, refused up front if it, or the nearest part of
    its path that exists, is not a directory."""
    out = Path(raw)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"--out {raw}: {found} is not a directory")
    return out


def _cost_params(scn: Scenario) -> CostParams:
    expected = expected_attack_packets(scn)
    if expected <= 0:
        raise ConfigError("scenario has no flood, so there is no cost model to evaluate")
    return CostParams(
        alpha=scn.alpha,
        beta=scn.beta,
        attack_fraction=expected_attack_fraction(scn),
        test_time_s=scn.tau_s,
        window=scn.detector.window,
        expected_packets=expected,
    )


def _cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    out = _out_dir(args.out)
    result = run_simulation(scn)
    files = write_outputs(result, out)
    for key, val in result.summary.items():
        print(f"{key} = {val}")
    print(f"wrote {len(files)} files to {out.resolve()}")
    return 0


def _cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    params = _cost_params(scn)
    best = optimal_skip(params.window, params.beta_over_alpha, params.expected_packets)
    if args.m is not None:
        skips = _parse_skip_list(args.m)
    else:
        grid = {max(1, round(best * f)) for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)}
        skips = sorted(m for m in grid if m < 2**63)  # the points the skip rule admits
    if args.runs < 0:
        raise ConfigError("--runs must be >= 0")
    # a trial costs at least one packet's work; huge counts clamp before the float product
    trial_packets = max(scn.expected_run_packets(), 1.0) * len(skips)
    if args.runs > 0 and min(args.runs, MAX_TRIAL_PACKETS + 1) * trial_packets > MAX_TRIAL_PACKETS:
        raise ConfigError(f"--runs {args.runs} over {len(skips)} skips asks for over "
                          f"{MAX_TRIAL_PACKETS:.0e} packets")
    out = _out_dir(args.out)
    # every Monte-Carlo trial runs, and may fail, before anything is written
    results = [monte_carlo_cost(scn, m, args.runs) for m in skips] if args.runs > 0 else []
    out.mkdir(parents=True, exist_ok=True)

    write_sweep_csv(out / "sweep.csv", skips, sweep_skip(params, skips))
    print(f"analytic optimum m = {best}")
    print(f"grid optimum      m = {brute_force_optimal(params)}")

    if results:
        write_monte_carlo_csv(out / "monte_carlo.csv", results)
        empirical = min(results, key=lambda r: r.mean_cost)
        print(f"empirical optimum m = {empirical.skip} "
              f"(mean cost {empirical.mean_cost:.4f} over {args.runs} runs)")
    print(f"swept m in {skips}; tables in {out.resolve()}")
    return 0


def _cmd_optimal_m(args) -> int:
    scn = load_scenario(args.scenario)
    if args.m is not None:
        check_skip(args.m, "--m")
    params = _cost_params(scn)
    best = optimal_skip(params.window, params.beta_over_alpha, params.expected_packets)
    print(f"window            = {params.window}")
    print(f"beta/alpha        = {params.beta_over_alpha:.6g}")
    print(f"expected packets  = {params.expected_packets:.6g}")
    print(f"optimal m         = {best}")
    for label, m in (("m*", best),) + ((("--m", args.m),) if args.m is not None else ()):
        rep = cost_report(params, m)
        print(
            f"cost at {label}={m}: total {rep.total:.6f} "
            f"(windows {rep.expected_windows:.3f}, overhead {rep.overhead_s:.6f} s, "
            f"dropped {rep.dropped:.1f}, reprocessing {rep.reprocessing_s:.6f} s)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodsim",
        description="Gateway flood-protection simulator: pacing, detection, mitigation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file (key = value lines)")
        p.add_argument("--out", required=True, help="output directory")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    common(p_sim)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="cost versus skip length")
    common(p_sweep)
    p_sweep.add_argument("--m", default=None, help="comma-separated skip lengths")
    p_sweep.add_argument("--runs", type=int, default=0,
                         help="Monte-Carlo repetitions per point (0 = analytic only)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_opt = sub.add_parser("optimal-m", help="closed-form skip length for a scenario")
    p_opt.add_argument("--scenario", required=True)
    p_opt.add_argument("--m", type=int, default=None, help="also price this skip length")
    p_opt.set_defaults(fn=_cmd_optimal_m)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: for every argument added, argparse looks up its
    # message catalogues on disk and the terminal size, ~1 ms that each call
    # of main would repeat
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
