"""Reference implementations the tests trust instead of the library.

Everything here is deliberately literal: explicit event queues, 1-based
cursor walks, O(n^2) scans. Nothing imports from floodsim, so agreement
means two independent readings of the same definitions landed on the same
numbers.
"""
import heapq
import math
from collections import deque


def fcfs_waits_event_driven(arrival_ns, service_ns):
    """Single-server FCFS waits via an explicit arrival/departure event loop."""
    n = len(arrival_ns)
    waits = [0] * n
    # (time, kind, idx) with arrivals (kind 0) ahead of a departure at ties;
    # either order yields the same waits, this one keeps the loop simple
    heap = [(int(arrival_ns[k]), 0, k) for k in range(n)]
    heapq.heapify(heap)
    queue = deque()
    busy = False
    while heap:
        t, kind, k = heapq.heappop(heap)
        if kind == 0:
            queue.append(k)
        else:
            busy = False
        if not busy and queue:
            j = queue.popleft()
            waits[j] = t - int(arrival_ns[j])
            busy = True
            heapq.heappush(heap, (t + int(service_ns[j]), 1, j))
    return waits


def pacing_delays(arrival_ns, gap_ns):
    """Shaping delay per packet, one packet at a time through the reflected
    recursion q_0 = 0, q_{n+1} = max(0, q_n + gap - (a_{n+1} - a_n))."""
    delays = []
    for k in range(len(arrival_ns)):
        if k == 0:
            q = 0
        else:
            q = max(0, q + int(gap_ns) - (int(arrival_ns[k]) - int(arrival_ns[k - 1])))
        delays.append(q)
    return delays


def step_through_machine(labels, window, skip, klass=None):
    """1-based step-through of the drop/skip cursor machine.

    labels: per-packet detector labels, 1 = attack. Returns the per-packet
    fate list ("tested" / "fwd" / "drop") plus the counters the library is
    expected to reproduce. klass, when given, splits the drop count.
    """
    n = len(labels)
    W = int(window)
    m = int(skip)
    i = j = 1
    fate = [None] * (n + 1)  # index 0 unused
    verdicts = []
    mode = "monitoring"
    mitigation_windows = 0
    episodes = 0

    def decide(lo, hi):
        nonlocal i, j, mode, mitigation_windows, episodes
        if mode == "under_attack":
            mitigation_windows += 1
        votes = sum(1 for k in range(lo, hi + 1) if labels[k - 1] == 1)
        attack = 2 * votes > (hi - lo + 1)
        verdicts.append((lo, hi, attack))
        if attack:
            if mode == "monitoring":
                episodes += 1
                mode = "under_attack"
            for k in range(j, hi + 1):
                fate[k] = "drop"
            j = hi + 1
            i = hi + m
        else:
            mode = "monitoring"
            for k in range(j, lo):
                fate[k] = "fwd"
            for k in range(lo, hi + 1):
                fate[k] = "tested"
            i = j = hi + 1

    while i + W - 1 <= n:
        decide(i, i + W - 1)
    if n - i + 1 >= math.ceil(W / 2):
        decide(i, n)
    for k in range(1, n + 1):
        if fate[k] is None:
            fate[k] = "fwd"

    dropped = sum(1 for k in range(1, n + 1) if fate[k] == "drop")
    out = {
        "fate": fate[1:],
        "verdicts": verdicts,
        "windows_tested": len(verdicts),
        "attack_verdicts": sum(1 for _, _, a in verdicts if a),
        "mitigation_windows": mitigation_windows,
        "episodes": episodes,
        "dropped": dropped,
        "forwarded": n - dropped,
    }
    if klass is not None:
        benign = sum(
            1 for k in range(1, n + 1) if fate[k] == "drop" and int(klass[k - 1]) == 0
        )
        out["benign_dropped"] = benign
        out["attack_dropped"] = dropped - benign
    return out


def strict_majority_prob(window, p):
    """P(Binomial(window, p) exceeds window/2), exact."""
    need = window // 2 + 1
    return sum(
        math.comb(window, k) * p**k * (1 - p) ** (window - k)
        for k in range(need, window + 1)
    )


def occupancy_at(entry, exits, t):
    """Occupancy of a stage at one instant, closed [entry, exit] convention."""
    return sum(1 for e in entry if e <= t) - sum(1 for x in exits if x < t)
