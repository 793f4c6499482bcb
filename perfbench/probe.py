"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/probe.py <workload> <seed> <smoke 0|1>

Prints the host seconds taken to import floodsim and parse the workload's
scenario text, which is what a user pays before a run's first op, then the
speed scale measured around it (see speed.py) and floodsim's file.
PYTHONPATH must point at the checkout's src directory.
"""
import sys
import time

from speed import SpeedMeter
from workloads import scenario_text


def main() -> None:
    name, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    text = scenario_text(name, seed, smoke)
    with SpeedMeter() as meter:
        t0 = time.perf_counter_ns()
        import floodsim
        from floodsim.scenario import parse_scenario

        parse_scenario(text)
        t1 = time.perf_counter_ns()
    elapsed = (t1 - t0) / 1e9 - meter.paused_s(t0, t1)
    print(f"{elapsed!r} {meter.scale()!r} {floodsim.__file__}")


if __name__ == "__main__":
    main()
