"""Workload definitions: scenario text generated from the workload seed.

This module imports nothing from floodsim or numpy, so the set-up probe can
load it before it starts its clock. The program only ever receives the text
built here; the shipped scenarios/*.cfg files are never read, so editing them
cannot change the benchmark.

Full sizes are the only ones used for reported numbers. Smoke sizes exist so
the benchmark's own test can run every workload, check and span in seconds.
"""
from __future__ import annotations


# How each workload's op calls floodsim; why each exists is in README.md.
KINDS = {
    "congestion_cli": "cli_simulate",
    "benign_monitor": "library",
    "costsweep_mc": "cli_sweep",
    "shortfloods_raw": "library",
}

# Skip lengths and Monte Carlo runs of the costsweep_mc op.
SWEEP_SKIPS = (1, 2, 4, 8, 16, 32, 64, 128)
SWEEP_RUNS = 100
SMOKE_SWEEP_SKIPS = (1, 8, 64)
SMOKE_SWEEP_RUNS = 3


def sweep_args(smoke: bool) -> tuple[tuple[int, ...], int]:
    return (SMOKE_SWEEP_SKIPS, SMOKE_SWEEP_RUNS) if smoke else (SWEEP_SKIPS, SWEEP_RUNS)


def _congestion(seed: int, smoke: bool) -> str:
    # the values of scenarios/congestion.cfg: 400 k packets, shaper on,
    # mitigation off
    duration, horizon = (2, 30) if smoke else (60, 120)
    return f"""\
benign.period_s = 1.0
benign.num_sources = 1
flood.1.start_s = 20
flood.1.duration_s = {duration}
flood.1.rate_pps = 6667
sqf.enabled = true
sqf.D_ms = 3.0
aam.enabled = false
detector.window = 20
run.seed = {seed}
run.horizon_s = {horizon}
run.sample_dt_ms = 100
"""


def _benign_monitor(seed: int, smoke: bool) -> str:
    # 10 sources x 10 kpps for 10 s: 1.0 M packets, all windows clear
    horizon = 0.2 if smoke else 10
    return f"""\
benign.period_s = 0.0001
benign.jitter_fraction = 0.3
benign.num_sources = 10
sqf.enabled = true
sqf.D_ms = 0.005
detector.window = 20
aam.enabled = true
aam.m_mode = optimal
run.seed = {seed}
run.horizon_s = {horizon}
"""


def _costsweep(seed: int, smoke: bool) -> str:
    # the values of scenarios/costsweep.cfg: one 5 s flood, ~10.5 k packets
    rate = 200 if smoke else 2000
    return f"""\
benign.period_s = 0.01
flood.1.start_s = 2
flood.1.duration_s = 5
flood.1.rate_pps = {rate}
sqf.enabled = true
sqf.D_ms = 3.0
detector.window = 20
aam.enabled = true
aam.m_mode = optimal
cost.alpha = 1.0
cost.beta = 0.05
cost.tau_ms = 3.0
run.seed = {seed}
run.horizon_s = 10
"""


def _shortfloods(seed: int, smoke: bool) -> str:
    # 100 pps benign over 200 s plus 189 floods of 0.3 s x 3 kpps, one per
    # second from t = 1 s: ~190 k packets served raw with regime switching
    floods, horizon = (9, 10) if smoke else (189, 200)
    lines = [
        "benign.period_s = 0.01",
        "benign.num_sources = 1",
        "sqf.enabled = false",
        "aam.enabled = false",
        f"run.seed = {seed}",
        f"run.horizon_s = {horizon}",
    ]
    for k in range(1, floods + 1):
        lines += [
            f"flood.{k}.start_s = {k}",
            f"flood.{k}.duration_s = 0.3",
            f"flood.{k}.rate_pps = 3000",
        ]
    return "\n".join(lines) + "\n"


_TEXT = {
    "congestion_cli": _congestion,
    "benign_monitor": _benign_monitor,
    "costsweep_mc": _costsweep,
    "shortfloods_raw": _shortfloods,
}


def scenario_text(name: str, seed: int, smoke: bool = False) -> str:
    """The scenario text of workload `name`, with `seed` as run.seed."""
    return _TEXT[name](seed, smoke)
