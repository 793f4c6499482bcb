"""End-to-end wiring: mitigation feeding the shaper feeding the server."""
import dataclasses
import re
from pathlib import Path

import numpy as np

from floodsim import (
    Scenario,
    ServiceTimeModel,
    load_scenario,
    run_simulation,
    to_ns,
    write_outputs,
)
from floodsim.detector import DetectorModel
from floodsim.traffic import BenignSpec, FloodSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def small_mix(**over):
    scn = Scenario(
        benign=BenignSpec(period_s=0.005, jitter_fraction=0.2),
        floods=[FloodSpec(start_s=1.0, duration_s=2.0, rate_pps=800.0)],
        detector=DetectorModel(window=20),
        pacing_gap_s=1.0e-3,
        seed=3,
        horizon_s=5.0,
    )
    return dataclasses.replace(scn, **over) if over else scn


def test_conservation_and_pacing():
    res = run_simulation(small_mix())
    n = res.summary["packets_total"]
    assert n == len(res.trace)
    assert res.summary["packets_dropped"] + res.summary["packets_forwarded"] == n

    released = res.emit_ns >= 0
    assert int(released.sum()) == res.summary["packets_forwarded"]
    np.testing.assert_array_equal(released, ~res.mitigation.dropped_mask())
    assert len(res.server) == int(released.sum())

    # the shaper's contract: consecutive emissions at least one gap apart,
    # never before the packet is available
    emitted = np.sort(res.emit_ns[released])
    assert np.all(np.diff(emitted) >= to_ns(1.0e-3))
    assert np.all(res.emit_ns[released] >= res.trace.arrival_ns[released])


def test_summary_keys():
    res = run_simulation(small_mix())
    assert {
        "packets_total",
        "packets_attack",
        "packets_benign",
        "sqf_enabled",
        "aam_enabled",
        "packets_forwarded",
        "packets_dropped",
        "server_peak_queue",
        "server_max_wait_s",
        "server_mean_wait_s",
        "makespan_s",
        "sqf_peak_queue",
        "sqf_max_delay_s",
        "benign_dropped",
        "attack_dropped",
        "windows_tested",
        "mitigation_windows",
        "attack_episodes",
        "final_skip",
    } <= set(res.summary)
    assert res.summary["attack_episodes"] >= 1
    assert res.summary["attack_dropped"] > 0
    assert res.summary["final_skip"] >= 1


def test_sqf_timeline_drains_to_zero():
    res = run_simulation(small_mix())
    times, counts = res.sqf_timeline
    assert counts[-1] == 0
    # the sampled view can miss the true peak but never exceed it
    assert counts.max() <= res.summary["sqf_peak_queue"]
    assert len(times) == len(counts)


def test_quiet_scenario_drops_nothing():
    res = run_simulation(load_scenario(SCENARIOS / "noflood.cfg"))
    assert res.summary["packets_attack"] == 0
    assert res.summary["packets_dropped"] == 0
    assert res.summary["attack_episodes"] == 0
    assert res.summary["packets_forwarded"] == res.summary["packets_total"]
    assert res.summary["windows_tested"] > 0
    assert not res.mitigation.events.is_kind("WINDOW_ATTACK").any()


def test_no_aam_forwards_everything():
    res = run_simulation(small_mix(aam_enabled=False))
    assert res.mitigation is None
    assert "benign_dropped" not in res.summary
    n = res.summary["packets_total"]
    assert res.summary["packets_forwarded"] == n
    assert np.all(res.emit_ns >= 0)
    assert len(res.server) == n


def test_no_sqf_hits_server_raw():
    scn = small_mix(
        sqf_enabled=False,
        aam_enabled=False,
        service=ServiceTimeModel(outlier_prob=0.0),
    )
    res = run_simulation(scn)
    assert res.sqf_timeline is None
    assert "sqf_peak_queue" not in res.summary
    np.testing.assert_array_equal(res.emit_ns, res.trace.arrival_ns)

    # service switches to the attack regime while the flood is on
    start_ns = res.server.arrival_ns + res.server.wait_ns
    inside = (start_ns >= to_ns(1.0)) & (start_ns < to_ns(3.0))
    assert inside.sum() > 100 and (~inside).sum() > 100
    assert res.server.service_ns[inside].mean() > 4.3e6
    assert res.server.service_ns[~inside].mean() < 3.2e6


def test_write_outputs_and_determinism(tmp_path):
    scn = small_mix()
    names = sorted(
        [
            "trace.csv",
            "server_trace.csv",
            "server_timeline.csv",
            "sqf_timeline.csv",
            "aam_events.csv",
            "summary.csv",
        ]
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    files1 = write_outputs(run_simulation(scn), d1)
    files2 = write_outputs(run_simulation(scn), d2)
    assert sorted(p.name for p in files1) == names
    assert sorted(p.name for p in files2) == names
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_summary_csv_format(tmp_path):
    res = run_simulation(small_mix())
    write_outputs(res, tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    row = dict(line.split(",", 1) for line in lines[1:])
    assert row["packets_total"] == str(res.summary["packets_total"])
    assert re.fullmatch(r"\d+\.\d{9}", row["server_max_wait_s"])


def test_empty_scenario_runs():
    scn = Scenario(benign=None, floods=[], horizon_s=1.0)
    res = run_simulation(scn)
    assert res.summary["packets_total"] == 0
    assert res.summary["makespan_s"] == 0.0
    assert res.summary["server_peak_queue"] == 0
    assert len(res.server) == 0


def test_empty_aam_run_keeps_the_aam_outputs(tmp_path):
    # one flood of 0.001 packets/s over 1 ms sends no packet at this seed
    quiet = FloodSpec(start_s=1.0, duration_s=0.001, rate_pps=0.001)
    empty = run_simulation(small_mix(benign=None, floods=[quiet]))
    full = run_simulation(small_mix())
    assert empty.summary["packets_total"] == 0 < full.summary["packets_total"]
    assert list(empty.summary) == list(full.summary)
    assert empty.summary["windows_tested"] == empty.summary["final_skip"] == 0
    names = [p.name for p in write_outputs(empty, tmp_path / "empty")]
    assert names == [p.name for p in write_outputs(full, tmp_path / "full")]
    events = (tmp_path / "empty" / "aam_events.csv").read_bytes()
    assert events == b"event_time_s,event,from_seq,to_seq,m_value\r\n"
