"""The op of each workload, and the checks run on every op's output.

Ops call floodsim through the names the tracer wraps: cli.main for the CLI
workloads and pipeline.run_simulation for the library ones. Checks run
outside the timed region and read CSVs line by line, so they add little to
the process's peak memory.

Not checked: that a released packet leaves the shaper no earlier than the
verdict that freed it. floodsim has not chosen that causality rule yet, and
today most forwarded packets of a two-flood scenario would break it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from decimal import Decimal
from pathlib import Path

import numpy as np
from floodsim import cli, pipeline, scenario
from floodsim.model import RngStream
from floodsim.scenario import build_trace
from floodsim.traffic import read_trace_csv

from workloads import KINDS, scenario_text, sweep_args


class OpFailed(Exception):
    """An op's output broke a check."""


def _rows(path: Path) -> int:
    """Data rows of a CSV file (lines after the header)."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _digest_files(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _digest_arrays(summary: dict, arrays) -> str:
    h = hashlib.sha256(repr(sorted(summary.items())).encode())
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.data)
    return h.hexdigest()


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OpFailed(what)


def _check_conservation(total: int, forwarded: int, dropped: int, served: int) -> None:
    _require(forwarded + dropped == total,
             f"packets_forwarded {forwarded} + packets_dropped {dropped} != packets_total {total}")
    _require(served == forwarded, f"served {served} != forwarded {forwarded}")


class Op:
    """One workload at one seed: the timed call and its output checks."""

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: Path):
        self.name = name
        self.kind = KINDS[name]
        self.text = scenario_text(name, seed, smoke)
        self.scenario = scenario.parse_scenario(self.text)   # traced as set-up
        self.skips, self.runs = sweep_args(smoke)
        self.cfg = work_dir / "scenario.cfg"
        self.cfg.write_text(self.text)
        self.packets = None   # per op; from the output, or derived up front
        if self.kind == "cli_sweep":
            rng = RngStream(self.scenario.seed, 0)
            per_skip = sum(len(build_trace(self.scenario, rng, (r + 1) * 1000))
                           for r in range(self.runs))
            self.packets = per_skip * len(self.skips)

    def argv(self, out_dir: Path) -> list[str]:
        if self.kind == "cli_simulate":
            return ["simulate", "--scenario", str(self.cfg), "--out", str(out_dir)]
        return ["sweep", "--scenario", str(self.cfg), "--out", str(out_dir),
                "--runs", str(self.runs), "--m", ",".join(map(str, self.skips))]

    def run(self, out_dir: Path):
        """The timed call. Returns what check() needs."""
        if self.kind == "library":
            return pipeline.run_simulation(self.scenario)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(self.argv(out_dir))
        return rc, stdout.getvalue()

    def check(self, result, out_dir: Path) -> dict:
        """Raise OpFailed on a bad output; else return digest, packets, bytes."""
        if self.kind == "library":
            return self._check_library(result)
        rc, stdout = result
        _require(rc == 0, f"cli.main returned {rc}")
        nbytes = sum(p.stat().st_size for p in out_dir.iterdir())
        if self.kind == "cli_simulate":
            packets = self._check_simulate_files(out_dir, stdout)
        else:
            packets = self._check_sweep_files(out_dir)
        return {"digest": _digest_files(out_dir), "packets": packets, "bytes": nbytes}

    def _check_library(self, res) -> dict:
        s = res.summary
        srv = res.server
        _check_conservation(s["packets_total"], s["packets_forwarded"],
                            s["packets_dropped"], len(srv))
        _require(bool(np.all(srv.wait_ns >= 0)), "negative server wait")
        _require(bool(np.all(np.diff(srv.arrival_ns) >= 0)), "server arrivals decrease")
        _require(bool(np.all(np.diff(srv.departure_ns) >= 0)), "server departures decrease")
        arrays = [res.trace.arrival_ns, res.trace.klass, res.trace.source_id, res.emit_ns,
                  srv.seq, srv.arrival_ns, srv.wait_ns, srv.service_ns, *res.server_timeline]
        if res.sqf_timeline is not None:
            arrays += list(res.sqf_timeline)
        if res.mitigation is not None:
            mit = res.mitigation
            arrays += [mit.outcomes, mit.release_ns, mit.drop_time_ns]
        return {"digest": _digest_arrays(s, arrays), "packets": s["packets_total"], "bytes": 0}

    def _check_simulate_files(self, out: Path, stdout: str) -> int:
        with open(out / "summary.csv", newline="") as fh:
            summary = {k: v for k, v in list(csv.reader(fh))[1:]}
        total = int(summary["packets_total"])
        forwarded = int(summary["packets_forwarded"])
        served = _check_server_trace(out / "server_trace.csv")
        _check_conservation(total, forwarded, int(summary["packets_dropped"]), served)
        _require(_rows(out / "trace.csv") == total, "trace.csv rows != packets_total")
        # the server timeline samples [0, makespan] every sample_dt, plus one
        makespan_ns = int(Decimal(summary["makespan_s"]) * 10**9)
        dt_ns = round(self.scenario.sample_dt_s * 1e9)
        _require(_rows(out / "server_timeline.csv") == makespan_ns // dt_ns + 2,
                 "server_timeline.csv rows do not cover the makespan")
        expected = {"trace.csv", "server_trace.csv", "server_timeline.csv", "summary.csv"}
        if self.scenario.sqf_enabled:
            expected.add("sqf_timeline.csv")
        if self.scenario.aam_enabled:
            expected.add("aam_events.csv")
        _require({p.name for p in out.iterdir()} == expected, "unexpected set of output files")
        _require(f"packets_total = {total}\n" in stdout, "printed summary disagrees with summary.csv")
        return total

    def _check_sweep_files(self, out: Path) -> int:
        _require(_rows(out / "sweep.csv") == len(self.skips), "sweep.csv rows != skips")
        with open(out / "monte_carlo.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        pairs = sorted((int(r[0]), int(r[1])) for r in rows)
        want = sorted((m, r) for m in self.skips for r in range(self.runs))
        _require(pairs == want, "monte_carlo.csv rows != runs x skips")
        return self.packets

    def check_trace_roundtrip(self, out: Path) -> None:
        """traffic.read_trace_csv must reproduce the generated trace exactly."""
        got = read_trace_csv(out / "trace.csv")
        want = build_trace(self.scenario, RngStream(self.scenario.seed, 0), 0)
        for field in ("arrival_ns", "klass", "source_id"):
            _require(np.array_equal(getattr(got, field), getattr(want, field)),
                     f"trace.csv round trip changed {field}")


def _check_server_trace(path: Path) -> int:
    """Rows of server_trace.csv; waits >= 0, arrivals and departures sorted."""
    rows = 0
    last_arrival = last_departure = -1.0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _, arrival, wait, _, departure in reader:
            a, d = float(arrival), float(departure)
            _require(a >= last_arrival and d >= last_departure,
                     f"server_trace.csv not sorted at row {rows}")
            _require(not wait.startswith("-"), f"negative wait at row {rows}")
            last_arrival, last_departure = a, d
            rows += 1
    return rows
