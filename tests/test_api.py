"""The package namespace: exactly the names the README and the demos use,
plus the error types and the run/result/output entry points."""
import ast
import re
from pathlib import Path

import floodsim

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
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
}


def imported_from_floodsim(source: str) -> set:
    tree = ast.parse(source)
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "floodsim"
        for alias in node.names
    }


def test_all_is_the_trimmed_list():
    assert len(floodsim.__all__) == len(set(floodsim.__all__))
    assert set(floodsim.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in floodsim.__all__:
        assert getattr(floodsim, name) is not None


def test_demo_imports_are_public():
    for path in sorted((ROOT / "demos").glob("*.py")):
        missing = imported_from_floodsim(path.read_text()) - PUBLIC
        assert not missing, f"{path.name} imports {sorted(missing)}"


def test_readme_imports_are_public():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    names = set().union(*(imported_from_floodsim(b) for b in blocks))
    assert names and not names - PUBLIC, sorted(names - PUBLIC)
