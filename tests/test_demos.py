"""The walkthroughs in demos/ run to completion against the library.

Each demo runs in a fresh interpreter on a copy of demos/ and scenarios/,
so the outputs it writes land in a temporary directory.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))
# demo 05's Monte Carlo lines: the 95 % CI half-widths come from the
# Student-t quantile, and read the same as when scipy computed it
DEMO_05_CI = [
    "  m =  62: mean cost 1.967 +- 0.029 (95% CI)",
    "  m = 125: mean cost 1.879 +- 0.065 (95% CI)",
    "  m = 250: mean cost 1.969 +- 0.104 (95% CI)",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("demos")
    shutil.copytree(ROOT / "demos", work / "demos", ignore=shutil.ignore_patterns("out"))
    shutil.copytree(ROOT / "scenarios", work / "scenarios")
    return work


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(workdir, name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(workdir / "demos" / name)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if name.startswith("05"):
        lines = proc.stdout.splitlines()
        assert [line for line in lines if line.endswith("(95% CI)")] == DEMO_05_CI
