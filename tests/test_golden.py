"""Golden output: the sha256 of every file the CLI writes for the shipped
scenarios. Any change to an output byte fails here; refactors of the
simulation or of the CSV writers must leave these digests alone.

The digests were recorded with the per-row csv.writer implementation that
preceded floodsim.csvio. To regenerate after an intended format change:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import tempfile
from pathlib import Path

import pytest

from floodsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

RUNS = {
    "simulate congestion": ["simulate", "--scenario", "congestion.cfg"],
    "simulate costsweep": ["simulate", "--scenario", "costsweep.cfg"],
    "simulate dualflood": ["simulate", "--scenario", "dualflood.cfg"],
    "simulate noflood": ["simulate", "--scenario", "noflood.cfg"],
    "simulate result1": ["simulate", "--scenario", "result1.cfg"],
    "sweep runs3": ["sweep", "--scenario", "costsweep.cfg", "--runs", "3"],
    "sweep runs3 m1,8,64": ["sweep", "--scenario", "costsweep.cfg", "--runs", "3", "--m", "1,8,64"],
}

GOLDEN = {
    "simulate congestion": {
        "server_timeline.csv": "f427949f3fc45c87d7cc0c94c3aa094154a42335c92d4e2cc2a3ebd4e8587f05",
        "server_trace.csv": "66edd49082937a1ca104e4efeea6fe9e1298cf3f0031b88a642e292dbf96a6c5",
        "sqf_timeline.csv": "7023bb83dd1c16aa21940f60ca755b7b17af350980c030806fe509fef9684c5e",
        "summary.csv": "e9b16f8d1d875390524760e1f13aba201a5df4d520eb8da3ad7d2ece6b2d2857",
        "trace.csv": "f1d44c3c11c98e2cdb884c492294f5f184ce569a579659dfaa03b2ff01c6dbaa",
    },
    "simulate costsweep": {
        "aam_events.csv": "200fd91408babf34a49f40d35c15bbce9b81a7036220a447c2f789404fad2f32",
        "server_timeline.csv": "a765de80c080ff039922045a752ceccea608b5c093f740fc960994e20a9804f9",
        "server_trace.csv": "07b7e133fcac253d097d286ecb28feca9ed02befe4c4dcbe19f173e06b1e2387",
        "sqf_timeline.csv": "0d0dc1e32f123a69d060fb22a8154cef80200e46ee773cab9e1354f9761eee36",
        "summary.csv": "e58b5c4de50d65b9ee7b61568c1141992d01fec43fdaa47912e5b5688a99f8e4",
        "trace.csv": "c58d7fcd0efe180590d23a74267aaa0468f1d0ce172d0d33c9149bf0a4390d17",
    },
    "simulate dualflood": {
        "aam_events.csv": "664e9d0d382f2cf0752e5dd60b3cb5f754241add6c55c562fd2e9b8020579fc7",
        "server_timeline.csv": "98bba45c7dada23c93c556aac2dd3703f3b5a33f09e67f83ebaad9ed4aea8ba1",
        "server_trace.csv": "809f93e4c6717f251fa1b00a467391a9526df80c395b62ce4646aa97b1ee5e15",
        "sqf_timeline.csv": "34d73a4d7f5c713fdeec4bb641dde8d0cf174fbbd2642a525e44fd0472ee7ced",
        "summary.csv": "50ed88c7c93d33ae16df4d0639f8b622172762cc729de6aa400dca6aa43a6333",
        "trace.csv": "83de89da255def0f0f219e2c80aafafd40977e8cd1b178f28a6d8f75fca3f2e9",
    },
    "simulate noflood": {
        "aam_events.csv": "6534987111662b6341dbd88a257ce14d3336a613d9426f725c0c14aa6d454347",
        "server_timeline.csv": "641c75d515e2fc3892b7ada7012de0c28fe4cce84eff87eaad7bae2c5fee516c",
        "server_trace.csv": "8b7f62d301f0ee7cd759ffe0571996740172ff0f4669664f7c858943cdc4002b",
        "sqf_timeline.csv": "44c61f55f124432957f33bc008a20a573e16c46cc81defc1ae821eee123ecec9",
        "summary.csv": "ac3bfc5e2a0fdb0ca982007d37ea08ed7b07d5cd605b49b38a373b935dbd7940",
        "trace.csv": "66a2a66d9650990bcd161ddc5bd77c19d9e877a4a5f93f770873a1c692f29a3d",
    },
    "simulate result1": {
        "server_timeline.csv": "66401edffa23a2bbbe637483bbb25f1901704810d4bdee099636a7f7580e1ab6",
        "server_trace.csv": "b91b39cb41143d161746ade771fb937247a1caeba1acef37bc9f99edc9774f9b",
        "sqf_timeline.csv": "1f6a9c5d7ec10521ef677bdcbcbd7994e0baeab7a780065f2ea4a93a9ab2f51d",
        "summary.csv": "848e4002f569931a5a10b4aaa31b18c4b1694d69936a520f95be6f1185087209",
        "trace.csv": "d18ad933580ce1fe6735996beef753b364b3482561bc916bcd363227c24c3b97",
    },
    "sweep runs3": {
        "monte_carlo.csv": "09d77ddfdc6de57635dec03a7a3ee1505935f9bc8b1d531b6def580fd47e8515",
        "sweep.csv": "20f2828fac2a01176003a219ade82fff4e57df9298b69acd8e786a842ab55f6a",
    },
    "sweep runs3 m1,8,64": {
        "monte_carlo.csv": "e61e45250736bc2409ca035347e91a92dd532e51ade378c1993ea5ea76decb14",
        "sweep.csv": "e741d6ddad2f134598dd188472c2b23bf1dab9fc984e4d21994fadf344b23391",
    },
}


def digests(argv, out: Path) -> dict:
    argv = [str(SCENARIOS / a) if a.endswith(".cfg") else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, tmp_path, capsys):
    assert digests(RUNS[name], tmp_path / "out") == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(argv, Path(tmp) / str(i)) for i, (name, argv) in enumerate(sorted(RUNS.items()))}
    pprint.pprint(table, width=120)
