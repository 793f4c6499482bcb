"""Command line front end.

Subcommands:
  simulate   run one scenario end to end and write its CSV outputs
  sweep      cost-vs-skip table, analytic and (with --runs) Monte-Carlo
  result1    paced-arrivals demonstration: zero server wait when the
             pacing gap exceeds the service ceiling
  optimal-m  print the closed-form skip length and its cost breakdown

Exit codes: 0 ok, 2 configuration problem, 3 run invariant violated.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
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
from .model import MAX_ELEMENTS, ConfigError, InvariantViolation, RngStream, ServiceTimeModel
from .model import check_skip
from .pipeline import run_simulation, write_outputs
from .scenario import (
    Scenario,
    expected_attack_fraction,
    expected_attack_packets,
    load_scenario,
)
from .traffic import FloodSpec


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


def _apply_overrides(scn: Scenario, args) -> Scenario:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if getattr(args, "no_sqf", False):
        changes["sqf_enabled"] = False
    if getattr(args, "no_aam", False):
        changes["aam_enabled"] = False
    if changes:
        scn = dataclasses.replace(scn, **changes)
    scn.validate()
    return scn


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
    scn = _apply_overrides(load_scenario(args.scenario), args)
    if args.m is not None:
        scn = dataclasses.replace(scn, skip_mode="fixed", fixed_skip=check_skip(args.m, "--m"))
    out = _out_dir(args.out)
    result = run_simulation(scn)
    files = write_outputs(result, out, gnuplot=args.gnuplot)
    for key, val in result.summary.items():
        print(f"{key} = {val}")
    print(f"wrote {len(files)} files to {out.resolve()}")
    return 0


def _cmd_sweep(args) -> int:
    scn = _apply_overrides(load_scenario(args.scenario), args)
    params = _cost_params(scn)
    best = optimal_skip(params.window, params.beta_over_alpha, params.expected_packets)
    if args.m is not None:
        skips = _parse_skip_list(args.m)
    else:
        skips = sorted({max(1, round(best * f)) for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)})
    # a trial costs at least one packet's work; huge counts clamp before the float product
    trial_packets = max(scn.expected_run_packets(), 1.0) * len(skips)
    if args.runs > 0 and min(args.runs, MAX_ELEMENTS + 1) * trial_packets > MAX_ELEMENTS:
        raise ConfigError(f"--runs {args.runs} over {len(skips)} skips asks for over "
                          f"{MAX_ELEMENTS:.0e} packets")
    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)

    reports = sweep_skip(params, skips)
    write_sweep_csv(out / "sweep.csv", skips, reports)
    print(f"analytic optimum m = {best}")
    print(f"grid optimum      m = {brute_force_optimal(params)}")

    if args.runs > 0:
        rng = RngStream(scn.seed, 0)
        results = [monte_carlo_cost(scn, m, args.runs, rng) for m in skips]
        write_monte_carlo_csv(out / "monte_carlo.csv", results)
        empirical = min(results, key=lambda r: r.mean_cost)
        print(f"empirical optimum m = {empirical.skip} "
              f"(mean cost {empirical.mean_cost:.4f} over {args.runs} runs)")
    print(f"swept m in {skips}; tables in {out.resolve()}")
    return 0


def _cmd_result1(args) -> int:
    for flag in ("D", "ceiling", "rate", "duration"):
        if not math.isfinite(getattr(args, flag)):
            raise ConfigError(f"--{flag} must be a finite number")
    out = _out_dir(args.out) if args.out else None
    gap_s = args.D * 1e-3
    scn = Scenario(
        benign=None,
        floods=[FloodSpec(start_s=0.0, duration_s=args.duration, rate_pps=args.rate)],
        service=ServiceTimeModel(ceiling_s=args.ceiling * 1e-3),
        sqf_enabled=True,
        pacing_gap_s=gap_s,
        aam_enabled=False,
        seed=args.seed if args.seed is not None else 1,
        horizon_s=args.duration,
    )
    result = run_simulation(scn)
    max_wait = float(result.server.wait_ns.max()) / 1e9 if len(result.server) else 0.0
    print(f"packets        = {len(result.server)}")
    print(f"pacing gap     = {gap_s * 1e3:.3f} ms")
    print(f"service ceiling= {args.ceiling:.3f} ms")
    print(f"max wait       = {max_wait:.9f} s")
    print(f"all waits zero = {bool((result.server.wait_ns == 0).all())}")
    if out:
        write_outputs(result, out, gnuplot=args.gnuplot)
        print(f"outputs in {out.resolve()}")
    return 0


def _cmd_optimal_m(args) -> int:
    scn = _apply_overrides(load_scenario(args.scenario), args)
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
        p.add_argument("--seed", type=int, default=None, help="override run.seed")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    common(p_sim)
    p_sim.add_argument("--m", type=int, default=None, help="force a fixed skip length")
    p_sim.add_argument("--no-sqf", action="store_true", help="bypass the traffic shaper")
    p_sim.add_argument("--no-aam", action="store_true", help="disable mitigation")
    p_sim.add_argument("--gnuplot", action="store_true", help="also write plots.gp")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="cost versus skip length")
    common(p_sweep)
    p_sweep.add_argument("--m", default=None, help="comma-separated skip lengths")
    p_sweep.add_argument("--runs", type=int, default=0,
                         help="Monte-Carlo repetitions per point (0 = analytic only)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_r1 = sub.add_parser("result1", help="zero-wait pacing demonstration")
    p_r1.add_argument("--D", type=float, default=3.2, help="pacing gap in ms")
    p_r1.add_argument("--ceiling", type=float, default=3.1, help="service ceiling in ms")
    p_r1.add_argument("--rate", type=float, default=2000.0, help="arrival rate in packets/s")
    p_r1.add_argument("--duration", type=float, default=10.0, help="stream length in s")
    p_r1.add_argument("--seed", type=int, default=None)
    p_r1.add_argument("--out", default=None, help="optional output directory")
    p_r1.add_argument("--gnuplot", action="store_true")
    p_r1.set_defaults(fn=_cmd_result1)

    p_opt = sub.add_parser("optimal-m", help="closed-form skip length for a scenario")
    p_opt.add_argument("--scenario", required=True)
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.add_argument("--m", type=int, default=None, help="also price this skip length")
    p_opt.set_defaults(fn=_cmd_optimal_m)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
