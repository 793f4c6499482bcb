"""floodsim benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; floodsim is imported from ./src. Each op
starts when the previous one (and its output checks) ends. --trace 0
prints the end-to-end metrics; --trace 1 alternates untraced and traced ops
and prints the per-layer metrics. The last stdout line is the result JSON;
the lines before it are a human-readable report and the run record.
See perfbench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedMeter
from workloads import KINDS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_PROBES = 3        # measured fresh-process set-ups per run (plus one warm-up)
MIN_OPS = 3             # per phase, even if the ops outlast --seconds


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def setup_seconds(name: str, seed: int, smoke: bool) -> list[tuple[float, float]]:
    """(host seconds, speed scale) to import floodsim and parse the scenario,
    each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = 1 if smoke else SETUP_PROBES + 1
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed), str(int(smoke))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        seconds, factor, module_file = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC):
            _fail(f"probe imported floodsim from {module_file}, not from {SRC}")
        times.append((float(seconds), float(factor)))
    return times if smoke else times[1:]   # the first probe warms the file cache


def run_record(args, packets, nbytes, digest) -> dict:
    import numpy
    import scipy

    def commit():
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return None
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        return ref

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "floodsim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "packets_per_op": packets,
        "bytes_per_op": nbytes,
        "digest": digest,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for the benchmark's own test; never for reporting")
    args = parser.parse_args()
    if not (SRC / "floodsim" / "__init__.py").is_file():
        _fail(f"no floodsim source under {SRC}; run from the root of a checkout")
    if args.seed < 0:
        _fail("--seed must be >= 0")

    setup = [] if args.trace else setup_seconds(args.workload, args.seed, args.smoke)

    sys.path.insert(0, str(SRC))
    import floodsim

    if not Path(floodsim.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported floodsim from {floodsim.__file__}, not from {SRC}")
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        return _run(args, setup, work, out_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, setup, work, out_root) -> int:
    from ops import Op, OpFailed
    from tracer import SIM_SPANS, Tracer, op_summaries

    traced = Tracer(full=True)
    plain = Tracer(full=False)
    with SpeedMeter() as setup_meter:
        if args.trace:   # the in-process set-up parse becomes a span of op "setup"
            with traced, traced.op("setup"):
                op = Op(args.workload, args.seed, args.smoke, work)
        else:
            op = Op(args.workload, args.seed, args.smoke, work)

    phases = (False, True) if args.trace else (False,)
    records = []          # one dict per op, in order
    kept_dir = None       # the first op's outputs, for the trace round trip
    start = time.perf_counter()

    def done() -> bool:
        if any(sum(r["traced"] == t for r in records) < MIN_OPS for t in phases):
            return False
        # start another op only if it should end within half an op of the budget
        cycle = _median([r["cycle_s"] for r in records])
        return time.perf_counter() - start + cycle / 2 > args.seconds

    while not done():
        k = len(records)
        began = time.perf_counter()
        tracer = traced if phases[k % len(phases)] else plain
        out_dir = Path(tempfile.mkdtemp(dir=work))
        rec = {"op": k, "traced": tracer is traced, "error": None}
        result = None
        first_span = len(tracer.spans)
        with SpeedMeter() as meter, tracer, tracer.op(k) as root:
            try:
                result = op.run(out_dir)
            except Exception as exc:   # an op that raises is a failed op
                rec["error"] = f"raised {type(exc).__name__}: {exc}"
        rec["scale"] = meter.scale()
        rec["op_host_s"] = (root.end - root.start) / 1e9 - meter.paused_s(root.start, root.end)
        rec["op_s"] = rec["op_host_s"] * rec["scale"]
        # the simulation can be a short part of the op: scale it by its own samples
        sim = [(s.start, s.end) for s in tracer.spans[first_span:]
               if s.parent == first_span and s.name in SIM_SPANS]
        rec["sim_s"] = meter.scale(sim) * sum(
            (end - start) / 1e9 - meter.paused_s(start, end) for start, end in sim)
        if rec["error"] is None:
            try:
                rec.update(op.check(result, out_dir))
            except (OpFailed, OSError, ValueError, KeyError) as exc:
                rec["error"] = f"check failed: {exc}"
        del result
        rec["cycle_s"] = time.perf_counter() - began   # op plus its checks
        records.append(rec)
        if kept_dir is None and op.kind == "cli_simulate" and rec["error"] is None:
            kept_dir = out_dir
        else:
            shutil.rmtree(out_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # determinism: every op of the run, traced or not, gives the same digest
    ok = [r for r in records if r["error"] is None]
    reference = ok[0]["digest"] if ok else None
    for r in ok:
        if r["digest"] != reference:
            r["error"] = f"digest {r['digest'][:12]} != first op's {reference[:12]}"

    run_problems = []
    if kept_dir is not None:   # once per run, outside the timed region
        try:
            op.check_trace_roundtrip(kept_dir)
        except OpFailed as exc:
            run_problems.append(str(exc))
        shutil.rmtree(kept_dir, ignore_errors=True)

    scales = {"setup": setup_meter.scale(), **{r["op"]: r["scale"] for r in records}}
    summaries = op_summaries(traced.spans, scales) if args.trace else {}
    for r in records:
        if r["traced"] and r["error"] is None:
            cov = summaries[r["op"]]
            if not cov["covered"]:
                r["error"] = (f"span coverage: gap {cov['gap_ns']} ns, "
                              f"cli self {cov['metrics']['cli.self_s']:.6f} s")
            elif op.kind == "cli_sweep" and cov["metrics"]["traffic.packets"] != op.packets:
                r["error"] = "traced trial packets differ from the derived count"

    failed = sum(r["error"] is not None for r in records)
    for r in records:
        if r["error"]:
            print(f"op {r['op']} failed: {r['error']}", file=sys.stderr)
    for msg in run_problems:
        print(f"run check failed: {msg}", file=sys.stderr)

    good = [r for r in records if r["error"] is None]
    plain_ops = [r for r in good if not r["traced"]]
    traced_ops = [r for r in good if r["traced"]]
    packets = good[0]["packets"] if good else 0
    nbytes = good[0]["bytes"] if good else 0
    digest = reference

    if args.trace:
        values = _layer_values(summaries, traced_ops, plain_ops)
        values.update((name, 0) for name in summaries["setup"]["metrics"] if name not in values)
    else:
        values = {
            "op_s": _median([r["op_s"] for r in plain_ops]),
            "sim_pkt_per_s": _median([r["packets"] / r["sim_s"] for r in plain_ops if r["sim_s"] > 0]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": _median([host * factor for host, factor in setup]),
        }
    declared = _declared("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        _fail(f"computed metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}

    record = run_record(args, packets, nbytes, digest)
    record["ops"] = len(records)
    record["error_rate"] = failed / len(records)
    _report(args, records, metrics, record, setup)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    dump = {"record": record, "ops": records, "metrics": metrics}
    if args.trace:
        dump["spans"] = [s.as_row() for s in traced.spans]
        dump["module_self_s"] = {op_id: summaries[op_id]["module_self_s"] for op_id in
                                 (r["op"] for r in traced_ops)}
    (out_root / f"{suffix}.json").write_text(json.dumps(dump, default=str))

    correct = failed == 0 and not run_problems and bool(plain_ops)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def _declared(kind: str) -> dict:
    """{metric name: unit} of one metric list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _layer_values(summaries, traced_ops, plain_ops) -> dict:
    per_op = [summaries[r["op"]]["metrics"] for r in traced_ops]
    values = {name: _median([m[name] for m in per_op]) for name in (per_op[0] if per_op else ())}
    values["scenario.parse_s"] = _median([x for s in summaries.values() for x in s["parse_s"]])
    values["trace.overhead_s"] = (_median([r["op_s"] for r in traced_ops])
                                  - _median([r["op_s"] for r in plain_ops]))
    values["trace.coverage_gap_s"] = max(
        (abs(summaries[r["op"]]["gap_ns"]) for r in traced_ops), default=0) / 1e9
    return values


def _report(args, records, metrics, record, setup) -> None:
    plain = [r for r in records if not r["traced"] and r["error"] is None]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)}  error_rate {record['error_rate']:.4f}")
    if plain:
        ref = [r["op_s"] for r in plain]
        host = [r["op_host_s"] for r in plain]
        print(f"  untraced op_s: median of {len(plain)} ops, min {min(ref):.4f} max {max(ref):.4f}; "
              f"host seconds median {_median(host):.4f}, speed scale median "
              f"{_median([r['scale'] for r in plain]):.3f}")
    if setup:
        host = [h for h, _ in setup]
        print(f"  setup_s: median of {len(setup)} fresh processes; host seconds "
              f"min {min(host):.4f} max {max(host):.4f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  digest {record['digest']}")
    print(json.dumps({"run_record": record}))


if __name__ == "__main__":
    sys.exit(main())
