"""Adaptive batch-drop mitigation: the window/skip index machine.

Two cursors walk the stream. ``test_cursor`` (the paper-style i, kept
0-based internally) marks the next window of ``window`` packets handed to
the detector; ``pending_cursor`` (j) marks the first packet whose fate is
still open. On an ATTACK verdict everything from the pending cursor through
the window end is dropped and the test cursor leaps ahead by the current
skip length; on a clear verdict the same span is forwarded and testing
continues back-to-back. In quiet periods the two cursors coincide and every
packet is tested, so the skip only ever sacrifices packets while an attack
is in progress.

Index updates follow the published machine verbatim (1-based form:
ATTACK -> j := i+W, i := i+W-1+m; clear -> both := i+W). Note the machine
leaves m-1 untested packets between a dropped span and the next window.

The skip length is refreshed from the forwarder's input-queue estimate on
every ATTACK verdict; a RECALC_M event is logged whenever the value actually
changes. The queue estimate at a verdict is "packets arrived so far, minus
packets disposed through the current window end" -- released-but-unpaced
packets count as gone, a documented desk-scale simplification.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .csvio import Seconds, write_columns
from .detector import DetectorModel, classify_stream, window_decision
from .model import InvariantViolation, PacketClass, RngStream, Trace

EVENT_WINDOW_ATTACK = "WINDOW_ATTACK"
EVENT_WINDOW_CLEAR = "WINDOW_CLEAR"
EVENT_RECALC_M = "RECALC_M"
EVENT_DROP_RANGE = "DROP_RANGE"
EVENT_FORWARD_RANGE = "FORWARD_RANGE"


class Outcome(IntEnum):
    """Per-packet disposition."""

    TESTED_FORWARDED = 0   # examined by the detector, then passed on
    FORWARDED = 1          # passed on untested (skip region of a clear verdict)
    DROPPED = 2


class Mode(IntEnum):
    MONITORING = 0
    UNDER_ATTACK = 1


def optimal_skip(window: int, beta_over_alpha: float, expected_packets: float) -> int:
    """Cost-optimal skip length for a given window size and cost ratio.

    Balances reprocessing of mistakenly dropped benign traffic (weight
    alpha) against detector overhead (weight beta): the total is minimized
    at sqrt(2*(beta/alpha)*window*(expected_packets - window)) - window,
    rounded half-up and clamped to >= 1. Deliberately independent of the
    benign fraction and of the per-packet test time: both cancel in the
    optimality condition.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if beta_over_alpha <= 0:
        raise ValueError("beta_over_alpha must be positive")
    if expected_packets <= window:
        warnings.warn(
            "expected packet volume does not exceed one window; skip clamped to 1",
            stacklevel=2,
        )
        return 1
    raw = math.sqrt(2.0 * beta_over_alpha * window * (expected_packets - window)) - window
    return max(1, math.floor(raw + 0.5))


@dataclass
class FixedSkip:
    """Constant skip length; refreshes are no-ops."""

    skip: int
    adaptive = False

    def __post_init__(self):
        if self.skip < 1:
            raise ValueError("skip must be >= 1")

    def refresh(self, window: int, queue_len: int) -> int:
        return self.skip


@dataclass
class AdaptiveSkip:
    """Recomputes the optimal skip from the live queue estimate, which is
    taken as the expected remaining attack volume."""

    beta_over_alpha: float
    adaptive = True

    def refresh(self, window: int, queue_len: int) -> int:
        if queue_len <= window:
            # a tiny backlog never justifies skipping far
            return 1
        return optimal_skip(window, self.beta_over_alpha, float(queue_len))


@dataclass
class MitigationEvent:
    """One event-log row. first/last are 0-based inclusive stream indices;
    the CSV writer converts to the 1-based positions used for auditing."""

    time_ns: int
    kind: str
    first: int
    last: int
    skip: int   # current skip length, 0 while not yet assigned


@dataclass
class MitigationState:
    test_cursor: int = 0        # 0-based start of the next window
    pending_cursor: int = 0     # 0-based first undecided packet
    skip: int = 0               # current skip length, 0 = not yet assigned
    mode: Mode = Mode.MONITORING
    windows_tested: int = 0     # every window handed to the detector
    mitigation_windows: int = 0  # windows tested while already under attack
    episodes: int = 0
    packets_dropped: int = 0
    benign_dropped: int = 0
    attack_dropped: int = 0
    packets_forwarded: int = 0


@dataclass
class MitigationResult:
    outcomes: np.ndarray      # uint8 of Outcome, one per packet
    release_ns: np.ndarray    # int64; instant a packet became forwardable, -1 if dropped
    drop_time_ns: np.ndarray  # int64; verdict instant that dropped it, -1 otherwise
    state: MitigationState
    events: list = field(default_factory=list)

    def dropped_mask(self) -> np.ndarray:
        return self.outcomes == int(Outcome.DROPPED)


def run_mitigation(
    trace: Trace,
    detector: DetectorModel,
    window: int,
    policy,
    rng: RngStream | None = None,
    *,
    test_pacing_ns: int = 0,
    labels: np.ndarray | None = None,
) -> MitigationResult:
    """Run the index machine over a stream and return per-packet outcomes,
    an event log and final counters.

    labels may be precomputed; otherwise the whole stream is classified up
    front from rng (one draw per packet, so outcomes are reproducible no
    matter how the windows fall). test_pacing_ns > 0 spaces verdicts at
    least window_len*test_pacing apart, modeling a detector that is fed
    through the paced link; 0 decides at the window's last arrival.

    The trailing partial window at stream end is tested when at least
    ceil(window/2) packets remain, otherwise the leftovers are forwarded
    untested.
    """
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
            events.append(MitigationEvent(now, EVENT_WINDOW_ATTACK, win_start, win_end, st.skip))
            new_skip = policy.refresh(window, queue_estimate(now, win_end))
            if new_skip < 1:
                raise ValueError("skip policy must yield skip >= 1")
            if new_skip != st.skip:
                st.skip = new_skip
                if getattr(policy, "adaptive", False):
                    events.append(MitigationEvent(now, EVENT_RECALC_M, win_start, win_end, st.skip))
            drop_span(st.pending_cursor, win_end, now)
            events.append(
                MitigationEvent(now, EVENT_DROP_RANGE, st.pending_cursor, win_end, st.skip)
            )
            st.pending_cursor = win_end + 1
            st.test_cursor = win_end + st.skip
        else:
            st.mode = Mode.MONITORING
            events.append(MitigationEvent(now, EVENT_WINDOW_CLEAR, win_start, win_end, st.skip))
            events.append(
                MitigationEvent(now, EVENT_FORWARD_RANGE, st.pending_cursor, win_end, st.skip)
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
        events.append(MitigationEvent(end_ns, EVENT_FORWARD_RANGE, first, n - 1, st.skip))
        outcomes[first:n] = int(Outcome.FORWARDED)
        held = np.arange(first, n) < st.test_cursor
        release_ns[first:n] = np.where(held, end_ns, arrivals[first:n])
        st.packets_forwarded += n - first
        st.pending_cursor = n

    if n and np.any(outcomes == 255):
        raise InvariantViolation("disposition partition violated")
    return MitigationResult(outcomes, release_ns, drop_time_ns, st, events)


def write_events_csv(path, events) -> None:
    """Columns: event_time_s,event,from_seq,to_seq,m_value.

    from_seq/to_seq are 1-based stream positions (the auditing convention);
    subtract one to index the trace. m_value 0 means "not yet assigned".
    """
    def ints(values):
        return np.fromiter(values, np.int64, len(events))

    write_columns(
        path,
        ["event_time_s", "event", "from_seq", "to_seq", "m_value"],
        [
            Seconds(ints(ev.time_ns for ev in events)),
            [ev.kind for ev in events],
            ints(ev.first + 1 for ev in events),
            ints(ev.last + 1 for ev in events),
            ints(ev.skip for ev in events),
        ],
    )
