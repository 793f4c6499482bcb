"""End-to-end run of the full gateway: pacing, windowed detection, and
skip-based dropping against a single flood.

The detector tests one window of packets, and on an attack verdict it
drops the next m packets unseen before testing again. The event log
below shows that rhythm: a tested window, a drop range, another tested
window, until the flood passes and a clear verdict ends the episode.
"""

import numpy as np

from floodsim import parse_scenario, run_simulation, to_seconds

CONFIG = """
benign.period_s = 0.01
benign.jitter_fraction = 0.2

flood.0.start_s = 2.0
flood.0.duration_s = 5.0
flood.0.rate_pps = 2000.0

sqf.D_ms = 1.0
detector.window = 20
aam.m_mode = optimal

run.seed = 9
run.horizon_s = 10.0
"""

res = run_simulation(parse_scenario(CONFIG))
s = res.summary

print(f"packets total:      {s['packets_total']}  "
      f"(attack {s['packets_attack']}, benign {s['packets_benign']})")
print(f"windows tested:     {s['windows_tested']}")
print(f"attack verdicts:    {s['mitigation_windows']}")
print(f"attack episodes:    {s['attack_episodes']}")
print(f"dropped:            {s['packets_dropped']}  "
      f"(attack {s['attack_dropped']}, benign {s['benign_dropped']})")
print(f"forwarded:          {s['packets_forwarded']}")
print(f"final skip length:  {s['final_skip']}")
print()

# the event log is columnar: arrays of times, kinds, index ranges and skips;
# a slice of it is another log, and iterating it yields one row at a time
events = res.mitigation.events
first_attack = int(np.flatnonzero(events.is_kind("WINDOW_ATTACK"))[0])
print("event log around the first attack verdict (0-based stream indices):")
print(f"{'t [s]':>9}  {'event':<14} {'first':>7} {'last':>7} {'skip':>6}")
for ev in events[max(0, first_attack - 2):first_attack + 10]:
    print(f"{to_seconds(ev.time_ns):>9.3f}  {ev.kind:<14} {ev.first:>7} {ev.last:>7} {ev.skip:>6}")

# casualties: benign packets caught inside drop ranges
frac = s["benign_dropped"] / s["packets_benign"]
print()
print(f"benign packets lost to dropping: {s['benign_dropped']} of "
      f"{s['packets_benign']} ({100 * frac:.1f}%)")
