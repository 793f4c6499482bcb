"""Pacing in isolation: what the shaper does to a burst, and why a gap
above the service ceiling makes server waits vanish.
"""

import numpy as np

from floodsim import (
    NORMAL_ALWAYS,
    RngStream,
    ServiceTimeModel,
    forward_times,
    peak_occupancy,
    simulate_server,
    to_ns,
    to_seconds,
)

# five packets, three of them in a 1 us burst at t = 10 us
arrivals = np.array([0, 10_000, 10_500, 11_000, 50_000], np.int64)
gap = 5_000  # ns

out = forward_times(arrivals, gap)
delay = out - arrivals

print("gap = 5 us")
print(f"{'arrival':>10} {'forwarded':>10} {'held for':>10}")
for a, f, d in zip(arrivals, out, delay):
    print(f"{a:>10} {f:>10} {d:>10}")

print("spacing on the wire:", np.diff(out))
print("peak shaper backlog:", peak_occupancy(arrivals, out))
print()

# Now the point of the gap. Service times are capped at 3.1 ms, so a gap
# above the cap means the server always finishes before the next packet
# shows up, and below it work piles up.
model = ServiceTimeModel(ceiling_s=3.1e-3)
n = 20_000
burst = np.arange(n, dtype=np.int64) * 500  # 2000 pps flood, back to back

for gap_ms in (3.2, 2.7):
    sent = forward_times(burst, to_ns(gap_ms * 1e-3))
    trace = simulate_server(sent, model, NORMAL_ALWAYS, RngStream(42, 0))
    w = trace.wait_ns
    print(
        f"gap {gap_ms} ms: max server wait = {to_seconds(int(w.max())):.6f} s, "
        f"packets that waited = {int((w > 0).sum())} of {n}"
    )
