"""Discrete-event models of a flood-protected gateway: source-side pacing,
FCFS server queueing, windowed majority-vote detection and skip-based
mitigation, plus the closed-form cost model used to pick the skip length.

The package namespace carries what the README and the demos use; everything
else is imported from its module (``floodsim.server``, ``floodsim.analysis``
and so on).
"""

from .analysis import CostParams, brute_force_optimal, cost_report, monte_carlo_cost
from .mitigation import optimal_skip
from .model import ConfigError, InvariantViolation, RngStream, ServiceTimeModel, to_ns, to_seconds
from .pacing import forward_times, peak_occupancy
from .pipeline import SimulationResult, run_simulation, write_outputs
from .scenario import (
    Scenario,
    ScenarioError,
    expected_attack_fraction,
    expected_attack_packets,
    load_scenario,
    parse_scenario,
)
from .server import NORMAL_ALWAYS, simulate_server
from .traffic import read_trace_csv

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CostParams",
    "InvariantViolation",
    "NORMAL_ALWAYS",
    "RngStream",
    "Scenario",
    "ScenarioError",
    "ServiceTimeModel",
    "SimulationResult",
    "brute_force_optimal",
    "cost_report",
    "expected_attack_fraction",
    "expected_attack_packets",
    "forward_times",
    "load_scenario",
    "monte_carlo_cost",
    "optimal_skip",
    "parse_scenario",
    "peak_occupancy",
    "read_trace_csv",
    "run_simulation",
    "simulate_server",
    "to_ns",
    "to_seconds",
    "write_outputs",
]
