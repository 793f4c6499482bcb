"""The package namespace: exactly the names the README and the demos use,
plus the error types and the run/result/output entry points."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import floodsim
from floodsim.cli import build_parser
from floodsim.scenario import _FLOOD_FIELDS, _KEYS

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


NO_SCIPY = """\
import runpy, sys
import floodsim
sys.argv = ["floodsim", "--help"]
try:
    runpy.run_module("floodsim", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_and_cli_load_no_scipy():
    # a fresh interpreter: `import floodsim`, then `python -m floodsim --help`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def library_definitions(tree: ast.Module):
    """(node, pattern of a use) for each top-level function and class, and
    each method or property of those classes but the dunders, which is used
    as an attribute."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, rf"\b{node.name}\b"
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield member, rf"\.{member.name}\b"


def test_every_library_definition_is_used_outside_tests():
    # each definition is named somewhere in the package, the demos or
    # perfbench beyond its own lines, so the library holds no code that only
    # the tests call
    sources = {
        path: path.read_text()
        for folder in ("src/floodsim", "demos", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    unused = []
    for path in sorted((ROOT / "src" / "floodsim").glob("*.py")):
        lines = sources[path].splitlines()
        others = [text for other, text in sources.items() if other != path]
        for node, pattern in library_definitions(ast.parse(sources[path])):
            rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            if not any(re.search(pattern, text) for text in [rest, *others]):
                unused.append(f"{path.name}:{node.name}")
    assert not unused, unused


def test_library_imports_no_warnings():
    # the library reports problems only as ConfigError, ValueError or
    # InvariantViolation, never as a warning a caller may not see or may
    # have turned into an exception
    importers = [
        path.name
        for path in sorted((ROOT / "src" / "floodsim").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "warnings" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "warnings")
    ]
    assert importers == []


def readme_section(title: str) -> str:
    """The README text under `## title`, up to the next `## ` heading."""
    readme = (ROOT / "README.md").read_text()
    return re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", readme, flags=re.S | re.M)[1]


def test_readme_names_every_scenario_key_and_subcommand():
    # a key-table row names `a.b`, or `a.b` / `c` as shorthand for a.b and a.c
    documented = set()
    for row in re.findall(r"^\| (`.*?) \|", readme_section("Scenario files"), flags=re.M):
        first, *rest = re.findall(r"`([^`]+)`", row)
        prefix = first.rsplit(".", 1)[0]
        documented |= {first, *(k if "." in k else f"{prefix}.{k}" for k in rest)}
    assert documented == set(_KEYS) | {f"flood.N.{f}" for f in _FLOOD_FIELDS}

    headings = re.findall(r"^### (\S+)$", readme_section("Command line"), flags=re.M)
    assert sorted(headings) == sorted(build_parser()._subparsers._group_actions[0].choices)


def test_readme_names_exactly_the_parser_flags():
    subparsers = build_parser()._subparsers._group_actions[0].choices.values()
    offered = {flag for sub in subparsers for action in sub._actions
               for flag in action.option_strings} - {"-h", "--help"}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme_section("Command line")))
    assert named == offered
