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


@pytest.mark.parametrize("argv", [[], ["result1"]], ids=["none", "retired-result1"])
def test_missing_or_unknown_subcommand_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# scenario keys set what these did (run.seed, aam.m_mode/m_fixed, sqf.enabled,
# aam.enabled), and no run writes plots.gp
RETIRED_FLAGS = {
    "simulate --seed": ["simulate", "--seed", "1"],
    "simulate --m": ["simulate", "--m", "50"],
    "simulate --no-sqf": ["simulate", "--no-sqf"],
    "simulate --no-aam": ["simulate", "--no-aam"],
    "simulate --gnuplot": ["simulate", "--gnuplot"],
    "sweep --seed": ["sweep", "--seed", "1"],
    "optimal-m --seed": ["optimal-m", "--seed", "1"],
}


@pytest.mark.parametrize("argv", list(RETIRED_FLAGS.values()), ids=list(RETIRED_FLAGS))
def test_retired_flags_exit_two(cfg, tmp_path, capsys, argv):
    out = [] if argv[0] == "optimal-m" else ["--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--scenario", str(cfg), *out, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def scenario_with(tmp_path, lines: str) -> str:
    """The path of the test scenario with lines appended, as a string."""
    path = tmp_path / "case.cfg"
    path.write_text(CFG + lines)
    return str(path)


def test_simulate_forced_skip(tmp_path, capsys):
    out = tmp_path / "fixed"
    cfg = scenario_with(tmp_path, "aam.m_mode = fixed\naam.m_fixed = 50\n")
    assert main(["simulate", "--scenario", cfg, "--out", str(out)]) == 0
    assert "final_skip = 50" in capsys.readouterr().out
    rows = read_rows(out / "aam_events.csv")
    events = {row[1] for row in rows[1:]}
    assert "RECALC_M" not in events
    assert {row[4] for row in rows[1:]} == {"50"}


def test_simulate_no_aam(tmp_path, capsys):
    out = tmp_path / "noaam"
    cfg = scenario_with(tmp_path, "aam.enabled = false\n")
    assert main(["simulate", "--scenario", cfg, "--out", str(out)]) == 0
    assert "aam_enabled = 0" in capsys.readouterr().out
    assert not (out / "aam_events.csv").exists()


def test_no_sqf_requires_no_aam(tmp_path, capsys):
    out = tmp_path / "x"
    cfg = scenario_with(tmp_path, "sqf.enabled = false\n")
    assert main(["simulate", "--scenario", cfg, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()
    cfg = scenario_with(tmp_path, "sqf.enabled = false\naam.enabled = false\n")
    assert main(["simulate", "--scenario", cfg, "--out", str(out)]) == 0
    assert not (out / "sqf_timeline.csv").exists()


# the retired options are unknown keys like any other
@pytest.mark.parametrize(
    "key", ["bogus.key", "run.drain_slowdown_factor", "sqf.link_latency_ms"]
)
def test_bad_key_reports_line(key, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(f"run.seed = 1\nrun.horizon_s = 2\n{key} = 1\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: line 3: unknown key {key!r}")


@pytest.mark.parametrize(
    "line",
    [
        "sqf.D_ms = nan",
        "sqf.D_ms = 1e-9",
        "run.horizon_s = inf",
        "service.mean_normal_ms = nan",
        "flood.1.start_s = nan",
        "run.sample_dt_ms = 1e-9",
        # a service bound under 1 ns: each wrote service_s = 0.000000000 on every row
        "service.ceiling_ms = 1e-9",
        "service.mean_normal_ms = 1e-9\nservice.var_normal_ms2 = 0",
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
    "lines",
    [
        "service.var_normal_ms2 = 1e300\n",  # behind the shaper: normal-regime draws
        "sqf.enabled = false\naam.enabled = false\nservice.var_attack_ms2 = 1e300\n",
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
        # ~600 services of 10^4 s (AAM drops most of the flood) fit the
        # clock, but sampling the server queue to its last exit every 0.1 s
        # takes ~6e7 samples
        "service.mean_normal_ms = 10000000\n",
        # 50 services of 10^8 s end by 5e9 s, and a grid one 4.7e9 s step
        # past that runs beyond int64 nanoseconds
        "benign.period_s = 0.1\nflood.1.rate_pps = 1e-9\naam.enabled = false\n"
        "service.mean_normal_ms = 1e11\nservice.var_normal_ms2 = 0\nrun.sample_dt_ms = 4.7e12\n",
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


def test_integer_keys_out_of_range_are_config_errors(tmp_path, capsys):
    for lines in (f"run.seed = {10**30}\n", f"aam.m_mode = fixed\naam.m_fixed = {10**30}\n",
                  "aam.m_mode = fixed\naam.m_fixed = 0\n"):
        cfg = scenario_with(tmp_path, lines)
        assert main(["simulate", "--scenario", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not (tmp_path / "o").exists()


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


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                min_size=2, max_size=2))
def test_simulate_fuzz_exits_cleanly(overrides):
    assert exits_cleanly(*simulate_exit(overrides))


# each subcommand's argv on the fuzz base scenario; a fuzzed flag is appended,
# and argparse keeps the last value of a repeated flag
FLAG_BASE = {
    "simulate": ["--scenario", "fuzz.cfg", "--out", "o"],
    "sweep": ["--scenario", "fuzz.cfg", "--out", "o", "--runs", "2"],
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


@settings(max_examples=100)
@given(st.sampled_from(sorted(FLAG_BASE)).flatmap(
    lambda command: st.tuples(st.just(command),
                              st.lists(st.sampled_from(FLAG_ARGS[command]), min_size=2,
                                       max_size=2))))
def test_flag_fuzz_exits_cleanly(case):
    command, args = case
    assert exits_cleanly(*cli_exit(command, [a for pair in args for a in pair]))


TINY_FLOOD = """\
benign.enabled = false
flood.1.start_s = 0.2
flood.1.duration_s = 0.5
flood.1.rate_pps = 10
detector.window = 20
run.horizon_s = 1
"""


@pytest.mark.parametrize("command", ["optimal-m", "sweep"])
def test_flood_within_one_window_is_quiet(tmp_path, command):
    # E[X] = 5 packets at W = 20: the optimum is skip 1, reached without a
    # warning, which cli_exit would turn into an exception
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_FLOOD)
    assert cli_exit(command, ["--scenario", str(path)]) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--m", str(10**23), "--runs", "2"],
        ["sweep", "--runs", str(10**30)],
        ["sweep", "--runs", "-3"],
        ["optimal-m", "--m", "0"],
        ["optimal-m", "--m", "-20"],  # m + W = 0 in the window count
        ["optimal-m", "--m", str(10**23)],
        ["sweep", "--scenario", "missing.cfg"],
        ["simulate", "--scenario", "missing.cfg"],
        ["sweep", "--m", " , "],  # no skip length in the list
        ["sweep", "--scenario", str(SCENARIOS / "noflood.cfg")],  # no cost model to sweep
        ["optimal-m", "--scenario", str(SCENARIOS / "noflood.cfg")],
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


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command, target):
    (tmp_path / "file").write_text("keep")

    def must_not_run(*args, **kwargs):
        raise AssertionError("--out is checked before the simulation runs")

    for name in ("run_simulation", "monte_carlo_cost"):
        monkeypatch.setattr(f"floodsim.cli.{name}", must_not_run)
    cfg = ["--scenario", str(SCENARIOS / "costsweep.cfg")]
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


def test_sweep_config_error_comes_before_any_output(tmp_path, capsys):
    # the Monte-Carlo cost needs one flood; dualflood.cfg has two
    out = tmp_path / "dual"
    cfg = SCENARIOS / "dualflood.cfg"
    assert main(["sweep", "--scenario", str(cfg), "--out", str(out), "--runs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: the cost experiment needs")
    assert not (out / "sweep.csv").exists()


def test_sweep_grid_keeps_to_the_skip_rule(tmp_path, capsys):
    # the optimum fits int64, but three times it does not
    path = tmp_path / "huge.cfg"
    path.write_text("benign.enabled = false\nflood.1.start_s = 0\nflood.1.duration_s = 1\n"
                    "flood.1.rate_pps = 1000\nrun.horizon_s = 1\ncost.beta = 9e32\n")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--out", str(out), "--runs", "1"]) == 0
    skips = [int(row[0]) for row in read_rows(out / "sweep.csv")[1:]]
    assert len(skips) == 6 and all(1 <= m < 2**63 for m in skips)
    assert [int(row[0]) for row in read_rows(out / "monte_carlo.csv")[1:]] == skips


def test_sweep_without_the_shaper_ignores_its_gap(tmp_path, capsys):
    # with the shaper off, the Monte Carlo decides verdicts at each window's
    # last arrival: a gap paced in would carry them past the clock
    text = (SCENARIOS / "costsweep.cfg").read_text()
    for key, value in (("sqf.enabled", "true"), ("sqf.D_ms", "3.0"), ("aam.enabled", "true")):
        assert f"{key} = {value}\n" in text
    text = text.replace("sqf.enabled = true\n", "sqf.enabled = false\n")
    text = text.replace("sqf.D_ms = 3.0\n", "sqf.D_ms = 1e12\n")
    text = text.replace("aam.enabled = true\n", "aam.enabled = false\n")
    path = tmp_path / "raw.cfg"
    path.write_text(text)
    out = tmp_path / "o"
    argv = ["sweep", "--scenario", str(path), "--out", str(out), "--runs", "2", "--m", "125"]
    assert main(argv) == 0, capsys.readouterr().err
    assert len(read_rows(out / "monte_carlo.csv")) == 3


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


@pytest.mark.parametrize("gap_ms", ["3.2", "2.7"])
def test_pacing_gap_against_the_service_ceiling(tmp_path, capsys, gap_ms):
    # result1.cfg caps service times at 3.1 ms: a 3.2 ms pacing gap keeps
    # every server wait at zero, a 2.7 ms gap builds a queue
    text = (SCENARIOS / "result1.cfg").read_text()
    assert "sqf.D_ms = 3.2\n" in text
    path = tmp_path / "result1.cfg"
    path.write_text(text.replace("sqf.D_ms = 3.2\n", f"sqf.D_ms = {gap_ms}\n"))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    max_wait = re.search(r"^server_max_wait_s = (\S+)$", capsys.readouterr().out, re.M)
    if gap_ms == "3.2":
        assert max_wait[1] == "0.0"
    else:
        assert float(max_wait[1]) > 0
