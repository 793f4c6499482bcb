# Adaptive skip length on a scenario with two floods of different sizes.
#
# Each time a tested window comes back hostile, the controller re-estimates
# the forwarder's input queue, as the packets arrived by the verdict minus
# the packets disposed of through the window's end, and recomputes the skip
# length m from it. A small flood earns small skips; the later, much larger
# flood pushes the estimate up and m follows it. For comparison the same
# scenario is run again with m pinned to a constant.

import dataclasses
from pathlib import Path

from floodsim import load_scenario, run_simulation, to_seconds

scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "dualflood.cfg")

for k, fl in enumerate(scn.floods):
    print(f"flood {k}: {fl.rate_pps:.0f} pps for {fl.duration_s:.0f} s starting at {fl.start_s:.0f} s")
print()

res = run_simulation(scn)
recalcs = [ev for ev in res.mitigation.events if ev.kind == "RECALC_M"]

# one row per second is enough to see the shape
print(f"skip length recomputations ({len(recalcs)} total, first of each second shown):")
seen = set()
for ev in recalcs:
    sec = ev.time_ns // 1_000_000_000
    if sec in seen:
        continue
    seen.add(sec)
    bar = "#" * max(1, ev.skip // 4)
    print(f"  t = {to_seconds(ev.time_ns):7.3f} s   m = {ev.skip:4d}  {bar}")
print()

split_ns = scn.floods[1].start_s * 1e9
small = [ev.skip for ev in recalcs if ev.time_ns < split_ns]
big = [ev.skip for ev in recalcs if ev.time_ns >= split_ns]
print(f"largest m during the {scn.floods[0].rate_pps:.0f} pps flood: {max(small)}")
print(f"largest m during the {scn.floods[1].rate_pps:.0f} pps flood: {max(big)}")
print()

fixed = run_simulation(dataclasses.replace(scn, skip_mode="fixed", fixed_skip=50))
print(f"{'':24} {'adaptive':>10} {'fixed m=50':>12}")
for key in ("windows_tested", "packets_dropped", "benign_dropped", "attack_dropped"):
    print(f"{key:<24} {res.summary[key]:>10} {fixed.summary[key]:>12}")

saved = fixed.summary["windows_tested"] - res.summary["windows_tested"]
print(f"\nsame casualties either way, but the adaptive controller spent "
      f"{saved} fewer tested windows of detector time")
