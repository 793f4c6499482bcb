"""The benchmark's own test: every workload, check and span at smoke sizes.

Smoke sizes exercise the code paths only; they are never used for reported
numbers.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import KINDS  # noqa: E402


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(KINDS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _declared(kind)
    record = json.loads(lines[-2])["run_record"]
    assert record["seed"] == 3 and len(record["digest"]) == 64
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.coverage_gap_s"] == 0
        assert m["cli.self_s"] > 0 and m["scenario.parse_s"] > 0
        assert m["traffic.packets"] > 0
        assert m["server.packets"] > 0 or workload == "costsweep_mc"
        assert m["mitigation.windows"] > 0 or workload in ("congestion_cli", "shortfloods_raw")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_checks_catch_broken_outputs(tmp_path):
    from ops import Op, OpFailed

    op = Op("congestion_cli", 3, True, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    result = op.run(out)
    op.check(result, out)
    trace = out / "trace.csv"
    trace.write_text("".join(trace.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(OpFailed, match="trace.csv rows"):
        op.check(result, out)

    op = Op("shortfloods_raw", 3, True, tmp_path)
    res = op.run(None)
    digest = op.check(res, None)["digest"]
    res.server.service_ns[-1] += 1
    assert op.check(res, None)["digest"] != digest
    res.server.wait_ns[0] = -1
    with pytest.raises(OpFailed, match="negative server wait"):
        op.check(res, None)
    res.summary["packets_dropped"] += 1
    with pytest.raises(OpFailed, match="packets_forwarded"):
        op.check(res, None)


def test_coverage_check_flags_overlap_and_unattributed_time():
    from tracer import Span, op_summaries

    def spans(*rows):
        out = []
        for name, parent, start_ms, end_ms in rows:
            span = Span(name, 0, parent)
            span.start, span.end = start_ms * 10**6, end_ms * 10**6
            out.append(span)
        return out

    nested = spans(("cli.op", -1, 0, 100), ("pipeline.run_simulation", 0, 1, 99),
                   ("server.simulate_server", 1, 10, 90))
    cov = op_summaries(nested, {0: 1.0})[0]
    assert cov["covered"] and cov["gap_ns"] == 0
    assert cov["metrics"]["server.self_s"] == 0.08
    overlap = spans(("cli.op", -1, 0, 100), ("pipeline.run_simulation", 0, 1, 60),
                    ("pipeline.write_outputs", 0, 50, 99))
    assert not op_summaries(overlap, {0: 1.0})[0]["covered"]
    missed = spans(("cli.op", -1, 0, 100), ("pipeline.run_simulation", 0, 1, 50))
    assert not op_summaries(missed, {0: 1.0})[0]["covered"]


def test_tracer_restores_every_wrapped_name():
    from tracer import Tracer, _call_sites
    from floodsim.server import RegimeSchedule

    before = [(o, a, vars(o)[a]) for o, a, _, _ in _call_sites()]
    boundary = vars(RegimeSchedule)["next_boundary"]
    with Tracer(full=True):
        assert any(vars(o)[a] is not f for o, a, f in before)
    assert all(vars(o)[a] is f for o, a, f in before)
    assert vars(RegimeSchedule)["next_boundary"] is boundary


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "benign_monitor", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
