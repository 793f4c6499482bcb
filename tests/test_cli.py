"""Command line behavior, exercised in process through main(argv)."""
import contextlib
import csv
import io
import re
import tempfile
import traceback
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from floodsim import read_trace_csv
from floodsim.cli import build_parser, main
from floodsim.scenario import _FLOOD_FIELDS, _KEYS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CFG = """\
benign.period_s = 0.005
flood.1.start_s = 1
flood.1.duration_s = 2
flood.1.rate_pps = 800
sqf.D_ms = 1.0
detector.window = 20
run.seed = 3
run.horizon_s = 5
"""


@pytest.fixture()
def cfg(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(CFG)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit):
        main([])


def test_simulate_writes_run_outputs(cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "packets_total = " in stdout
    assert "wrote" in stdout

    names = {p.name for p in out.iterdir()}
    assert names == {
        "trace.csv",
        "server_trace.csv",
        "server_timeline.csv",
        "sqf_timeline.csv",
        "aam_events.csv",
        "summary.csv",
    }
    trace = read_trace_csv(out / "trace.csv")
    assert len(trace) > 0


def test_simulate_is_deterministic(cfg, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out2)]) == 0
    for p1 in sorted(out1.iterdir()):
        assert p1.read_bytes() == (out2 / p1.name).read_bytes()


def test_simulate_forced_skip(cfg, tmp_path, capsys):
    out = tmp_path / "fixed"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out), "--m", "50"]) == 0
    assert "final_skip = 50" in capsys.readouterr().out
    rows = read_rows(out / "aam_events.csv")
    events = {row[1] for row in rows[1:]}
    assert "RECALC_M" not in events
    assert {row[4] for row in rows[1:]} == {"50"}


def test_simulate_no_aam(cfg, tmp_path, capsys):
    out = tmp_path / "noaam"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out), "--no-aam"]) == 0
    assert "aam_enabled = 0" in capsys.readouterr().out
    assert not (out / "aam_events.csv").exists()


def test_no_sqf_requires_no_aam(cfg, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out), "--no-sqf"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert (
        main(
            ["simulate", "--scenario", str(cfg), "--out", str(out), "--no-sqf", "--no-aam"]
        )
        == 0
    )
    assert not (out / "sqf_timeline.csv").exists()


def test_bad_key_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("run.seed = 1\nrun.horizon_s = 2\nbogus.key = 1\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "line 3" in err


@pytest.mark.parametrize(
    "line",
    [
        "sqf.D_ms = nan",
        "sqf.D_ms = 1e-9",
        "run.horizon_s = inf",
        "service.mean_normal_ms = nan",
        "sqf.link_latency_ms = nan",
        "flood.1.start_s = nan",
        "run.sample_dt_ms = 1e-9",
        "cost.alpha = nan",
        "cost.tau_ms = inf",
        "sqf.D_ms = 1e300",
        "run.horizon_s = 1e12",
        "aam.m_fixed = 1000000000000000000000000000000",
    ],
)
def test_non_finite_and_sub_ns_values_are_config_errors(tmp_path, capsys, line):
    path = tmp_path / "case.cfg"
    path.write_text(CFG + line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. numpy's overflowing int64 cast
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    if "1e-9" not in line:
        assert f"line {len(CFG.splitlines()) + 1}:" in err


@pytest.mark.parametrize(
    "flags",
    [["--ceiling", "nan"], ["--rate", "nan"], ["--duration", "inf"], ["--D", "1e300"],
     ["--rate", "1e300"]],
)
def test_result1_rejects_non_finite_flags(capsys, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["result1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "lines",
    [
        "service.var_normal_ms2 = 1e300\n",  # behind the shaper: normal-regime draws
        "sqf.enabled = false\naam.enabled = false\nservice.var_attack_ms2 = 1e300\n",
        "aam.enabled = false\nrun.drain_slowdown_factor = 1e300\n",
        "benign.period_s = 1e-300\n",
        "flood.1.rate_pps = 1e300\n",
        "benign.num_sources = 100000000000000000000\n",
        "benign.num_sources = 1000000000000\n",
        "run.sample_dt_ms = 0.000001\nrun.horizon_s = 1000\n",
        # 10 000 packets 10^6 s apart overrun the 9.2e9 s of int64 nanoseconds
        "benign.period_s = 0.001\nflood.1.rate_pps = 1e-9\nrun.horizon_s = 10\n"
        "aam.enabled = false\nsqf.D_ms = 1000000000\n",
        # so do 10 000 service times of 10^6 s each, unshaped
        "benign.period_s = 0.001\nflood.1.rate_pps = 1e-9\nrun.horizon_s = 10\n"
        "sqf.enabled = false\naam.enabled = false\nservice.mean_normal_ms = 1000000000\n",
        # and 1 600 flood services of ~3*10^9 s
        "aam.enabled = false\nrun.drain_slowdown_factor = 1e12\n",
        # ~600 services of 10^4 s (AAM drops most of the flood) fit the
        # clock, but sampling the server queue to its last exit every 0.1 s
        # takes ~6e7 samples
        "service.mean_normal_ms = 10000000\n",
    ],
)
def test_runs_too_large_for_the_clock_or_memory_are_config_errors(tmp_path, capsys, lines):
    path = tmp_path / "case.cfg"
    path.write_text(CFG + lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_overridden_flags_must_fit_int64(cfg, tmp_path, capsys):
    for flag in ("--m", "--seed"):
        args = ["--scenario", str(cfg), "--out", str(tmp_path / "o"), flag, str(10**30)]
        assert main(["simulate", *args]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")


FUZZ_BASE = """\
benign.period_s = 0.01
flood.1.start_s = 0.2
flood.1.duration_s = 0.5
flood.1.rate_pps = 1000
sqf.D_ms = 0.5
run.horizon_s = 1
"""
FUZZ_KEYS = sorted(_KEYS) + [f"flood.{k}.{f}" for k in (1, 2) for f in _FLOOD_FIELDS]
# none of these passes validation while asking for more than ~10^3 packets
FUZZ_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", str(10**30), "x"]


def simulate_exit(overrides) -> tuple[int, str]:
    """Exit code and stderr of `floodsim simulate` on the fuzz base scenario
    with (key, value) lines appended; numpy warnings raise."""
    text = FUZZ_BASE + "".join(f"{key} = {value}\n" for key, value in overrides)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text)
        code = main(["simulate", "--scenario", str(path), "--out", str(Path(tmp) / "o")])
    return code, err.getvalue()


def exits_cleanly(code: int, err: str) -> bool:
    """A documented exit code with its message (argparse's usage error is an
    exit 2 too); an exception escaping main would be a traceback at the
    command line."""
    if code == 0:
        return True
    if code == 2 and err.startswith("usage:") and ": error: argument " in err:
        return True
    return (code, err.split(":")[0]) in ((2, "configuration error"), (3, "invariant violated"))


def test_simulate_survives_every_single_override():
    assert simulate_exit([]) == (0, "")
    bad = [(key, value) for key in FUZZ_KEYS for value in FUZZ_VALUES
           if not exits_cleanly(*simulate_exit([(key, value)]))]
    assert bad == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                min_size=2, max_size=2))
def test_simulate_fuzz_exits_cleanly(overrides):
    assert exits_cleanly(*simulate_exit(overrides))


# each subcommand's argv on the fuzz base scenario; a fuzzed flag is appended,
# and argparse keeps the last value of a repeated flag
FLAG_BASE = {
    "simulate": ["--scenario", "fuzz.cfg", "--out", "o"],
    "sweep": ["--scenario", "fuzz.cfg", "--out", "o", "--runs", "2"],
    "result1": ["--duration", "1", "--rate", "200"],
    "optimal-m": ["--scenario", "fuzz.cfg"],
}


def flag_args(command: str) -> list[list[str]]:
    """Every flag of one subcommand, as read from its parser: a flag that
    takes a value once with each fuzz value, any other flag alone."""
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    flags = [(a.option_strings[0], a.nargs != 0) for a in sub._actions
             if a.option_strings and a.dest != "help"]
    return [[flag, value] for flag, takes_value in flags if takes_value
            for value in FUZZ_VALUES] + [[flag] for flag, takes_value in flags if not takes_value]


FLAG_ARGS = {command: flag_args(command) for command in FLAG_BASE}


def cli_exit(command: str, extra: list[str]) -> tuple[int, str]:
    """Exit code and stderr of `floodsim <command>` on the fuzz base scenario,
    run in a fresh directory with extra arguments appended; numpy warnings
    raise, and an exception escaping main comes back as exit 1 with its
    traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        Path("fuzz.cfg").write_text(FUZZ_BASE)
        try:
            code = main([command, *FLAG_BASE[command], *extra])
        except SystemExit as exc:  # argparse refused an argument
            code = exc.code
        except Exception:
            return 1, traceback.format_exc()
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(FLAG_BASE))
def test_every_flag_survives_every_single_value(command):
    assert cli_exit(command, []) == (0, "")
    bad = [(args, result) for args in FLAG_ARGS[command]
           if not exits_cleanly(*(result := cli_exit(command, args)))]
    assert bad == []


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FLAG_BASE)).flatmap(
    lambda command: st.tuples(st.just(command),
                              st.lists(st.sampled_from(FLAG_ARGS[command]), min_size=2,
                                       max_size=2))))
def test_flag_fuzz_exits_cleanly(case):
    command, args = case
    assert exits_cleanly(*cli_exit(command, [a for pair in args for a in pair]))


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--m", str(10**23), "--runs", "2"],
        ["sweep", "--runs", str(10**30)],
        ["optimal-m", "--m", "0"],
        ["optimal-m", "--m", "-20"],  # m + W = 0 in the window count
        ["optimal-m", "--m", str(10**23)],
        ["simulate", "--m", "0"],
        ["simulate", "--scenario", "missing.cfg"],
    ],
)
def test_out_of_range_flags_and_missing_scenarios_are_config_errors(tmp_path, capsys, argv):
    out = [] if argv[0] == "optimal-m" else ["--out", str(tmp_path / "o")]
    cfg = ["--scenario", str(SCENARIOS / "costsweep.cfg")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], *cfg, *out, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "result1"])
@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command, target):
    (tmp_path / "file").write_text("keep")

    def must_not_run(*args, **kwargs):
        raise AssertionError("--out is checked before the simulation runs")

    for name in ("run_simulation", "monte_carlo_cost"):
        monkeypatch.setattr(f"floodsim.cli.{name}", must_not_run)
    cfg = [] if command == "result1" else ["--scenario", str(SCENARIOS / "costsweep.cfg")]
    runs = ["--runs", "2"] if command == "sweep" else []
    assert main([command, *cfg, *runs, "--out", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out")
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text() == "keep"


@pytest.mark.parametrize("command", ["simulate", "sweep", "optimal-m"])
@pytest.mark.parametrize("cost", ["cost.alpha = 1e-300\ncost.beta = 1e300\n",
                                  "cost.alpha = 1\ncost.beta = 1e200\n"])
def test_cost_ratio_past_the_skip_rule_is_a_config_error(tmp_path, capsys, command, cost):
    # beta/alpha = inf, and 1e200 whose skip is ~1e101 packets: neither fits int64
    path = tmp_path / "case.cfg"
    path.write_text(FUZZ_BASE + cost)
    out = [] if command == "optimal-m" else ["--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--scenario", str(path), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: the cost-optimal skip")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_uncovered_flood_is_invariant_violation(tmp_path, capsys):
    path = tmp_path / "late.cfg"
    path.write_text(
        "flood.1.start_s = 8\nflood.1.duration_s = 5\nflood.1.rate_pps = 100\n"
        "run.horizon_s = 10\n"
    )
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "invariant violated" in capsys.readouterr().err


def test_sweep_analytic_only(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = SCENARIOS / "costsweep.cfg"
    assert main(["sweep", "--scenario", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "analytic optimum m = 125" in stdout
    assert (out / "sweep.csv").exists()
    assert not (out / "monte_carlo.csv").exists()
    rows = read_rows(out / "sweep.csv")
    assert rows[0][0] == "m"
    assert len(rows) > 2


def test_sweep_with_monte_carlo(tmp_path, capsys):
    out = tmp_path / "mc"
    cfg = SCENARIOS / "costsweep.cfg"
    assert (
        main(
            ["sweep", "--scenario", str(cfg), "--out", str(out), "--runs", "2", "--m", "50,125"]
        )
        == 0
    )
    stdout = capsys.readouterr().out
    assert "empirical optimum m = " in stdout
    sweep_rows = read_rows(out / "sweep.csv")
    assert [r[0] for r in sweep_rows[1:]] == ["50", "125"]
    mc_rows = read_rows(out / "monte_carlo.csv")
    assert len(mc_rows) == 5
    assert [r[0] for r in mc_rows[1:]] == ["50", "50", "125", "125"]


def test_sweep_rejects_bad_skip_list(tmp_path, capsys):
    cfg = SCENARIOS / "costsweep.cfg"
    out = tmp_path / "bad"
    assert main(["sweep", "--scenario", str(cfg), "--out", str(out), "--m", "a,b"]) == 2
    assert main(["sweep", "--scenario", str(cfg), "--out", str(out), "--m", "0"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_optimal_m_report(capsys):
    cfg = SCENARIOS / "costsweep.cfg"
    assert main(["optimal-m", "--scenario", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"optimal m\s+= 125\b", out)
    assert "cost at m*=125" in out

    assert main(["optimal-m", "--scenario", str(cfg), "--m", "80"]) == 0
    out = capsys.readouterr().out
    assert "cost at --m=80" in out


def test_result1_wide_gap_never_waits(capsys):
    code = main(
        ["result1", "--D", "3.2", "--ceiling", "3.1", "--duration", "5", "--rate", "800"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all waits zero = True" in out
    assert "max wait       = 0.000000000 s" in out


def test_result1_narrow_gap_builds_queue(capsys):
    code = main(
        ["result1", "--D", "2.7", "--ceiling", "3.1", "--duration", "5", "--rate", "800"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all waits zero = False" in out


def test_result1_optional_outputs(tmp_path, capsys):
    out_dir = tmp_path / "r1"
    code = main(
        [
            "result1",
            "--D",
            "3.2",
            "--ceiling",
            "3.1",
            "--duration",
            "5",
            "--rate",
            "800",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    assert "outputs in" in capsys.readouterr().out
    names = {p.name for p in out_dir.iterdir()}
    assert "summary.csv" in names and "sqf_timeline.csv" in names
    assert "aam_events.csv" not in names
