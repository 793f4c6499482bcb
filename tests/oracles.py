"""Reference implementations the tests trust instead of the library.

The literal oracles are deliberately literal: explicit event queues, 1-based
cursor walks, O(n^2) scans. They import nothing from floodsim, so agreement
means two independent readings of the same definitions landed on the same
numbers.

The functions from window_decision on are earlier library code kept
verbatim: the per-window majority vote, the one-verdict-at-a-time window
machine that called it, the closed-form FCFS waits, the server chunk loop
that redraws the whole remaining stream per chunk, the sort-based peak
occupancy and the three-key lexsort merge. They use floodsim's types and
primitives, and the faster versions must reproduce them exactly.
"""
import heapq
import math
from collections import deque

import numpy as np

from floodsim.detector import DetectorModel, classify_stream
from floodsim.mitigation import (
    FixedSkip,
    MitigationEvent,
    MitigationResult,
    MitigationState,
    Mode,
    Outcome,
    optimal_skip,
)
from floodsim.model import (
    InvariantViolation,
    PacketClass,
    Regime,
    RngStream,
    ServiceTimeModel,
    Trace,
)
from floodsim.pacing import max_plus
from floodsim.server import RegimeSchedule, ServerTrace


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


def window_decision(labels, expected_len: int | None = None) -> bool:
    """True iff attack labels hold a strict majority of the window.

    expected_len, when given, asserts the window length (wrong length is a
    precondition error). Works on any nonempty label sequence; the trailing
    partial window at stream end is decided over its actual length.
    """
    arr = np.asarray(labels, dtype=np.uint8)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("labels must be a nonempty 1-d sequence")
    if expected_len is not None and len(arr) != expected_len:
        raise ValueError(f"expected {expected_len} labels, got {len(arr)}")
    n_attack = int(np.count_nonzero(arr == int(PacketClass.ATTACK)))
    return 2 * n_attack > len(arr)


def reference_run_mitigation(
    trace: Trace,
    detector: DetectorModel,
    policy,
    rng: RngStream | None = None,
    *,
    test_pacing_ns: int = 0,
    labels: np.ndarray | None = None,
) -> MitigationResult:
    """Run the index machine over a stream and return per-packet outcomes,
    an event log and final counters, testing windows of detector.window
    packets.

    labels may be precomputed; otherwise the whole stream is classified up
    front from rng (one draw per packet, so outcomes are reproducible no
    matter how the windows fall). test_pacing_ns > 0 spaces verdicts at
    least window_len*test_pacing apart, modeling a detector that is fed
    through the paced link; 0 decides at the window's last arrival.

    The trailing partial window at stream end is tested when at least
    ceil(window/2) packets remain, otherwise the leftovers are forwarded
    untested.
    """
    window = detector.window
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(trace)
    if labels is None:
        if rng is None:
            raise ValueError("need rng when labels are not precomputed")
        labels = classify_stream(trace.klass, detector, rng)
    else:
        labels = np.asarray(labels, dtype=np.uint8)
        if len(labels) != n:
            raise ValueError("labels must align with the trace")

    arrivals = trace.arrival_ns
    outcomes = np.full(n, 255, np.uint8)
    release_ns = np.full(n, -1, np.int64)
    drop_time_ns = np.full(n, -1, np.int64)
    st = MitigationState()
    events: list[MitigationEvent] = []
    last_verdict_ns = None

    def verdict_instant(window_end: int, window_len: int) -> int:
        t = int(arrivals[window_end])
        if test_pacing_ns > 0 and last_verdict_ns is not None:
            t = max(t, last_verdict_ns + window_len * int(test_pacing_ns))
        return t

    def queue_estimate(now_ns: int, window_end: int) -> int:
        arrived = int(np.searchsorted(arrivals, now_ns, side="right"))
        return max(0, arrived - (window_end + 1))

    def drop_span(first: int, last: int, now_ns: int) -> None:
        outcomes[first : last + 1] = int(Outcome.DROPPED)
        drop_time_ns[first : last + 1] = now_ns
        k = trace.klass[first : last + 1]
        n_att = int(np.count_nonzero(k == int(PacketClass.ATTACK)))
        st.packets_dropped += last - first + 1
        st.attack_dropped += n_att
        st.benign_dropped += (last - first + 1) - n_att

    def forward_span(first_pending: int, win_start: int, last: int, now_ns: int) -> None:
        # untested packets released by the verdict leave at the verdict
        # instant; tested ones were already flowing and keep their arrival
        if win_start > first_pending:
            outcomes[first_pending:win_start] = int(Outcome.FORWARDED)
            release_ns[first_pending:win_start] = now_ns
        outcomes[win_start : last + 1] = int(Outcome.TESTED_FORWARDED)
        release_ns[win_start : last + 1] = arrivals[win_start : last + 1]
        st.packets_forwarded += last - first_pending + 1

    def handle_window(win_start: int, win_end: int) -> None:
        nonlocal last_verdict_ns
        win_len = win_end - win_start + 1
        now = verdict_instant(win_end, win_len)
        last_verdict_ns = now
        if st.mode == Mode.UNDER_ATTACK:
            st.mitigation_windows += 1
        st.windows_tested += 1
        is_attack = window_decision(labels[win_start : win_end + 1])
        if is_attack:
            if st.mode == Mode.MONITORING:
                st.episodes += 1
                st.mode = Mode.UNDER_ATTACK
            events.append(MitigationEvent(now, "WINDOW_ATTACK", win_start, win_end, st.skip))
            if isinstance(policy, FixedSkip):
                new_skip = policy.skip
            else:
                queue = queue_estimate(now, win_end)
                new_skip = optimal_skip(window, policy.beta_over_alpha, float(queue))
            if new_skip != st.skip:
                st.skip = new_skip
                events.append(MitigationEvent(now, "RECALC_M", win_start, win_end, st.skip))
            drop_span(st.pending_cursor, win_end, now)
            events.append(
                MitigationEvent(now, "DROP_RANGE", st.pending_cursor, win_end, st.skip)
            )
            st.pending_cursor = win_end + 1
            st.test_cursor = win_end + st.skip
        else:
            st.mode = Mode.MONITORING
            events.append(MitigationEvent(now, "WINDOW_CLEAR", win_start, win_end, st.skip))
            events.append(
                MitigationEvent(now, "FORWARD_RANGE", st.pending_cursor, win_end, st.skip)
            )
            forward_span(st.pending_cursor, win_start, win_end, now)
            st.pending_cursor = win_end + 1
            st.test_cursor = win_end + 1

    if isinstance(policy, FixedSkip):
        st.skip = policy.skip

    while st.test_cursor + window <= n:
        handle_window(st.test_cursor, st.test_cursor + window - 1)

    # stream end: maybe one partial window, then flush leftovers untested
    remaining = n - st.test_cursor
    if remaining >= math.ceil(window / 2):
        handle_window(st.test_cursor, n - 1)
    if st.pending_cursor < n:
        first = st.pending_cursor
        end_ns = int(arrivals[n - 1])
        events.append(MitigationEvent(end_ns, "FORWARD_RANGE", first, n - 1, st.skip))
        outcomes[first:n] = int(Outcome.FORWARDED)
        held = np.arange(first, n) < st.test_cursor
        release_ns[first:n] = np.where(held, end_ns, arrivals[first:n])
        st.packets_forwarded += n - first
        st.pending_cursor = n

    if n and np.any(outcomes == 255):
        raise InvariantViolation("disposition partition violated")
    return MitigationResult(outcomes, release_ns, drop_time_ns, st, events)


def _lindley_from(a: np.ndarray, t: np.ndarray, initial_wait: int) -> np.ndarray:
    """Lindley waits over a nonempty stream fragment whose first packet
    already waits initial_wait. Unchecked; the chunked simulation calls it
    per chunk.

    Reflection identity over the partial sums s_n of u_n = T_n - A_{n+1}:
    L_n = max(s_n + initial_wait, s_n - min_{k<=n} s_k), exact in integers.
    """
    n = len(a)
    out = np.empty(n, np.int64)
    out[0] = initial_wait
    if n == 1:
        return out
    u = t[:-1] - np.diff(a)
    s = np.cumsum(u)
    run_min = np.minimum.accumulate(s)
    np.maximum(s + initial_wait, s - run_min, out=out[1:])
    return out


def lindley_waits(arrival_ns, service_ns) -> np.ndarray:
    """Waiting times of an FCFS queue (int64 ns), one per packet: the service
    starts s_n = max(a_n, s_{n-1} + T_{n-1}) from pacing.max_plus, minus a_n."""
    a = np.asarray(arrival_ns, dtype=np.int64)
    t = np.asarray(service_ns, dtype=np.int64)
    if a.shape != t.shape:
        raise ValueError("arrivals and services must have equal length")
    if np.any(np.diff(a) < 0):
        raise ValueError("arrivals must be sorted")
    if np.any(t < 0):
        raise ValueError("service times must be nonnegative")
    return max_plus(a, np.cumsum(t) - t) - a


def reference_simulate_server(
    arrival_ns,
    model: ServiceTimeModel,
    schedule: RegimeSchedule,
    rng: RngStream,
    seq=None,
) -> ServerTrace:
    """Serve a stream FCFS, sampling each service time under the regime in
    force at that packet's service start.

    One standard normal and one uniform are pre-drawn per packet, so the
    consumed randomness does not depend on where regime boundaries fall.
    """
    a = np.asarray(arrival_ns, dtype=np.int64)
    n = len(a)
    if seq is None:
        seq = np.arange(n, dtype=np.int64)
    else:
        seq = np.asarray(seq, dtype=np.int64)
    if n and np.any(np.diff(a) < 0):
        raise ValueError("arrivals must be sorted")
    waits = np.empty(n, np.int64)
    services = np.empty(n, np.int64)
    if n == 0:
        return ServerTrace(seq, a, waits, services)

    g = rng.generator
    z = g.standard_normal(n)
    u = g.random(n)

    idx = 0
    wait = 0
    while idx < n:
        start0 = int(a[idx]) + wait
        regime = Regime.ATTACK if schedule.in_attack(start0) else Regime.NORMAL
        bound = schedule.next_boundary(start0)
        t_cand = model.draw_ns(regime, z[idx:], u[idx:])
        w_cand = _lindley_from(a[idx:], t_cand, wait)
        if bound is None:
            take = n - idx
        else:
            starts = a[idx:] + w_cand
            take = int(np.searchsorted(starts, bound, side="left"))
            if take < 1:
                # the first packet's start defines the regime, so it must fit
                raise InvariantViolation(f"regime chunk at {start0} ns is empty")
        waits[idx : idx + take] = w_cand[:take]
        services[idx : idx + take] = t_cand[:take]
        if idx + take < n:
            wait = int(w_cand[take])
        idx += take
    return ServerTrace(seq, a, waits, services)


def reference_peak_occupancy(entry_ns, exit_ns) -> int:
    """Exact maximum occupancy under the [entry, exit] closed convention
    (no sampling grid involved)."""
    entry = np.sort(np.asarray(entry_ns, dtype=np.int64))
    exits = np.sort(np.asarray(exit_ns, dtype=np.int64))
    if len(entry) == 0:
        return 0
    # +1 events sort before -1 events at equal times: the departing packet
    # still counts at its exit instant.
    times = np.concatenate([entry, exits])
    deltas = np.concatenate([np.ones(len(entry), np.int64), -np.ones(len(exits), np.int64)])
    order = np.lexsort((-deltas, times))
    running = np.cumsum(deltas[order])
    return int(running.max())


def reference_merge(traces) -> Trace:
    """Merge already-sorted traces into one stream with dense seq numbers.

    Ties break by (source_id, position within the input trace), so the merge
    is fully deterministic. Unsorted input is a precondition error.
    """
    for t in traces:
        if len(t) and np.any(np.diff(t.arrival_ns) < 0):
            raise ValueError("merge inputs must be sorted by arrival time")
    if not traces or all(len(t) == 0 for t in traces):
        return Trace.empty()
    arrival = np.concatenate([t.arrival_ns for t in traces])
    klass = np.concatenate([t.klass for t in traces])
    source = np.concatenate([t.source_id for t in traces])
    orig = np.concatenate([np.arange(len(t), dtype=np.int64) for t in traces])
    order = np.lexsort((orig, source, arrival))
    return Trace(arrival[order], klass[order], source[order])
