"""Adaptive batch-drop mitigation: the window/skip index machine.

Two cursors walk the stream. ``test_cursor`` (the paper-style i, kept
0-based internally) marks the next window of ``detector.window`` packets
handed to the detector; ``pending_cursor`` (j) marks the first packet whose
fate is still open. On an ATTACK verdict everything from the pending cursor
through the window end is dropped and the test cursor leaps ahead by the
current skip length; on a clear verdict the same span is forwarded and
testing continues back-to-back. In quiet periods the two cursors coincide
and every packet is tested, so the skip only ever sacrifices packets while
an attack is in progress.

Index updates follow the published machine verbatim (1-based form:
ATTACK -> j := i+W, i := i+W-1+m; clear -> both := i+W). Note the machine
leaves m-1 untested packets between a dropped span and the next window.

The skip length is refreshed from the forwarder's input-queue estimate on
every ATTACK verdict; a RECALC_M event is logged whenever the value actually
changes. The queue estimate at a verdict is "packets arrived so far, minus
packets disposed through the current window end" -- released-but-unpaced
packets count as gone, a documented desk-scale simplification.

The machine runs in time linear in the stream. Prefix sums of the detector
labels and of the packet classes give every window's vote and every drop
span's benign/attack split in O(1). Verdicts are decided in numpy blocks,
each a run of windows with one verdict. Clear windows tile the stream back
to back from the test cursor; attack windows under FixedSkip start
W - 1 + m apart, since the skip never changes. The first window of the
other verdict is found from prefix-sum votes over a span of windows that
doubles until it holds one (the same search for both kinds), and the
block's verdict instants v_j = max(a_end_j, v_{j-1} + len_j*D) come from
one verdict-clock helper over pacing.max_plus. A clear block covers a
MONITORING stretch, led by the clear verdict that ends an episode if there
is one (its untested prefix leaves at that verdict). An attack block drops
the contiguous span from the pending cursor through its last window. A
partial tail window is a block of its own. AdaptiveSkip refreshes the skip
from the arrivals at each verdict, so its attack blocks are one window
long.

The event log is an EventLog: parallel columns of verdict instants, kind
codes, index ranges and skip lengths. Iterating it, or indexing it with an
integer, yields MitigationEvent rows.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .csvio import Seconds, write_columns
from .detector import DetectorModel, classify_stream
from .model import InvariantViolation, PacketClass, RngStream, Trace, check_skip
from .pacing import max_plus

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
    if not beta_over_alpha > 0:
        raise ValueError("beta_over_alpha must be positive")
    if expected_packets <= window:
        warnings.warn(
            "expected packet volume does not exceed one window; skip clamped to 1",
            stacklevel=2,
        )
        return 1
    raw = math.sqrt(2.0 * beta_over_alpha * window * (expected_packets - window)) - window
    # an infinite ratio rounds to 2**63 as well, so the one skip rule refuses both
    m = max(1, math.floor(min(raw, 2.0**63) + 0.5))
    return check_skip(m, "the cost-optimal skip for cost.beta / cost.alpha")


@dataclass
class FixedSkip:
    """Constant skip length; refreshes are no-ops."""

    skip: int

    def __post_init__(self):
        check_skip(self.skip, "skip")

    def refresh(self, window: int, queue_len: int) -> int:
        return self.skip


@dataclass
class AdaptiveSkip:
    """Recomputes the optimal skip from the live queue estimate, which is
    taken as the expected remaining attack volume."""

    beta_over_alpha: float

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


EVENT_KINDS = (
    EVENT_WINDOW_ATTACK,
    EVENT_WINDOW_CLEAR,
    EVENT_RECALC_M,
    EVENT_DROP_RANGE,
    EVENT_FORWARD_RANGE,
)
_ATTACK, _CLEAR, _RECALC, _DROP, _FORWARD = range(len(EVENT_KINDS))
_KIND_BYTES = np.array([k.encode() for k in EVENT_KINDS])
_CLEAR_FORWARD = np.array([_CLEAR, _FORWARD], np.uint8)
_ATTACK_DROP = np.array([_ATTACK, _DROP], np.uint8)
_ATTACK_RECALC_DROP = np.array([_ATTACK, _RECALC, _DROP], np.uint8)


@dataclass(eq=False)
class EventLog:
    """The event log as parallel columns, one entry per row.

    kind holds codes into EVENT_KINDS. An integer index gives one
    MitigationEvent, iteration gives every row in order, and a slice or a
    boolean mask gives another EventLog.
    """

    time_ns: np.ndarray  # int64 verdict instant
    kind: np.ndarray     # uint8 code into EVENT_KINDS
    first: np.ndarray    # int64, 0-based inclusive stream indices
    last: np.ndarray     # int64
    skip: np.ndarray     # int64 current skip length, 0 while not yet assigned

    def __len__(self) -> int:
        return len(self.time_ns)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return next(iter(self[[key]]))  # the one row of a one-row log
        return EventLog(self.time_ns[key], self.kind[key], self.first[key], self.last[key],
                        self.skip[key])

    def __iter__(self):
        rows = zip(self.time_ns.tolist(), self.kind.tolist(), self.first.tolist(),
                   self.last.tolist(), self.skip.tolist())
        for t, k, first, last, skip in rows:
            yield MitigationEvent(t, EVENT_KINDS[k], first, last, skip)

    def is_kind(self, kind: str) -> np.ndarray:
        """Boolean mask of the rows of one event kind."""
        return self.kind == EVENT_KINDS.index(kind)


def _event_log(blocks: list) -> EventLog:
    """The EventLog of (time, kind, first, last, skip) column blocks, in order."""
    dtypes = (np.int64, np.uint8, np.int64, np.int64, np.int64)
    return EventLog(*(
        np.concatenate([b[c] for b in blocks]).astype(dt, copy=False) if blocks
        else np.empty(0, dt)
        for c, dt in enumerate(dtypes)
    ))


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
    events: EventLog

    def dropped_mask(self) -> np.ndarray:
        return self.outcomes == int(Outcome.DROPPED)


_FIRST_SPAN_WINDOWS = 64  # windows in the first span searched for a verdict


def _prefix_count(values: np.ndarray, code: int) -> np.ndarray:
    """out[k] = how many of values[:k] equal code (int64, length n + 1)."""
    out = np.zeros(len(values) + 1, np.int64)
    np.cumsum(values == code, out=out[1:])
    return out


def _first_window(votes: np.ndarray, start: int, window: int, stride: int, count: int,
                  attack: bool) -> int:
    """Index of the first of `count` windows of `window` packets, starting
    `stride` apart from `start`, whose verdict is attack (a strict majority
    of attack labels) if `attack` is true and clear otherwise; `count` if
    none is.

    The span of windows searched doubles until it holds one, so the cost
    follows the answer rather than `count`.
    """
    lo, span = 0, _FIRST_SPAN_WINDOWS
    while lo < count:
        hi = min(count, lo + span)
        first, last = start + lo * stride, start + (hi - 1) * stride
        ayes = votes[first + window : last + window + 1 : stride] - votes[first : last + 1 : stride]
        hits = np.flatnonzero((2 * ayes > window) == attack)
        if len(hits):
            return lo + int(hits[0])
        lo, span = hi, 2 * span
    return count


def run_mitigation(
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
    votes = _prefix_count(labels, int(PacketClass.ATTACK))
    attack_packets = _prefix_count(trace.klass, int(PacketClass.ATTACK))
    outcomes = np.full(n, 255, np.uint8)
    release_ns = np.full(n, -1, np.int64)
    drop_time_ns = np.full(n, -1, np.int64)
    st = MitigationState()
    log: list = []  # event column blocks, in log order
    pace = max(int(test_pacing_ns), 0)
    min_tail = math.ceil(window / 2)  # a shorter partial window goes untested

    fixed = isinstance(policy, FixedSkip)
    if fixed:
        st.skip = policy.skip

    def run_of(stride: int, attack: bool):
        """Starts and ends of the windows from the test cursor, `stride`
        apart, up to the first whose verdict is not `attack`; the partial
        tail window alone when no full window is left. The window at the
        test cursor has the verdict `attack`."""
        c = st.test_cursor
        full = (n - c - window) // stride + 1 if n - c >= window else 0
        k = _first_window(votes, c, window, stride, full, not attack)
        if not k:
            return np.array([c], np.int64), np.array([n - 1], np.int64)
        starts = np.arange(c, c + k * stride, stride, dtype=np.int64)
        return starts, starts + (window - 1)

    def verdict_clock(starts, ends, last_verdict_ns):
        """Verdict instants v_j = max(a_end_j, v_{j-1} + len_j*pace) of
        windows tested in turn, from v_{-1} = the last verdict (None before
        the first one)."""
        return max_plus(arrivals[ends], np.cumsum(ends - starts + 1) * pace, last_verdict_ns)

    def clear(last_verdict_ns):
        """Forward the run of clear windows from the test cursor, back to
        back, as one block; returns the last verdict instant."""
        first = st.pending_cursor
        starts, ends = run_of(window, False)
        c, end = int(starts[0]), int(ends[-1]) + 1
        now = verdict_clock(starts, ends, last_verdict_ns)
        firsts = np.repeat(starts, 2)
        firsts[1] = first  # the first forward range also frees the untested prefix
        log.append((
            np.repeat(now, 2),
            np.tile(_CLEAR_FORWARD, len(ends)),
            firsts,
            np.repeat(ends, 2),
            np.full(2 * len(ends), st.skip, np.int64),
        ))
        # untested packets released by the verdict leave at the verdict
        # instant; tested ones were already flowing and keep their arrival
        outcomes[first:c] = int(Outcome.FORWARDED)
        release_ns[first:c] = now[0]
        outcomes[c:end] = int(Outcome.TESTED_FORWARDED)
        release_ns[c:end] = arrivals[c:end]
        st.mitigation_windows += st.mode == Mode.UNDER_ATTACK  # it ends an episode
        st.mode = Mode.MONITORING
        st.windows_tested += len(ends)
        st.packets_forwarded += end - first
        st.test_cursor = st.pending_cursor = end
        return int(now[-1])

    def attack(last_verdict_ns):
        """Drop everything pending through the run of attack windows from
        the test cursor as one block; returns the last verdict instant.

        Under FixedSkip the run's windows start window - 1 + skip apart, up
        to the first clear one. Any other policy refreshes the skip from the
        arrivals at each verdict, so its run is one window long.
        """
        first, c = st.pending_cursor, st.test_cursor
        if fixed:
            starts, ends = run_of(window - 1 + st.skip, True)
        else:
            starts, ends = np.array([c], np.int64), np.array([min(c + window, n) - 1], np.int64)
        end, k = int(ends[-1]) + 1, len(ends)
        now = verdict_clock(starts, ends, last_verdict_ns)
        skip_before = st.skip
        if not fixed:
            arrived = int(arrivals.searchsorted(now[0], side="right"))
            new_skip = policy.refresh(window, max(0, arrived - end))
            if new_skip < 1:
                raise ValueError("skip policy must yield skip >= 1")
            st.skip = new_skip
        # each window logs its verdict, the new skip if the refresh changed
        # it (only in a one-window run), and its drop span
        kinds = _ATTACK_DROP if st.skip == skip_before else _ATTACK_RECALC_DROP
        r = len(kinds)
        drop_firsts = np.concatenate(([first], ends[:-1] + 1))
        firsts = np.repeat(starts, r)
        firsts[r - 1 :: r] = drop_firsts
        skips = np.full(k * r, st.skip, np.int64)
        skips[0] = skip_before
        log.append((np.repeat(now, r), np.tile(kinds, k), firsts, np.repeat(ends, r), skips))
        outcomes[first:end] = int(Outcome.DROPPED)
        drop_time_ns[first:end] = np.repeat(now, ends - drop_firsts + 1)
        n_att = attack_packets.item(end) - attack_packets.item(first)
        st.mitigation_windows += k - (st.mode == Mode.MONITORING)
        st.episodes += st.mode == Mode.MONITORING
        st.mode = Mode.UNDER_ATTACK
        st.windows_tested += k
        st.packets_dropped += end - first
        st.attack_dropped += n_att
        st.benign_dropped += end - first - n_att
        st.pending_cursor = end
        st.test_cursor = end - 1 + st.skip
        return int(now[-1])

    last_verdict_ns = None
    while n - st.test_cursor >= min_tail:
        c = st.test_cursor
        end = min(c + window, n)
        if 2 * (votes.item(end) - votes.item(c)) > end - c:  # strict majority
            last_verdict_ns = attack(last_verdict_ns)
        else:
            last_verdict_ns = clear(last_verdict_ns)

    # stream end: flush leftovers untested
    if st.pending_cursor < n:
        first = st.pending_cursor
        end_ns = int(arrivals[n - 1])
        log.append(np.array([[end_ns], [_FORWARD], [first], [n - 1], [st.skip]], np.int64))
        outcomes[first:n] = int(Outcome.FORWARDED)
        held = np.arange(first, n) < st.test_cursor
        release_ns[first:n] = np.where(held, end_ns, arrivals[first:n])
        st.packets_forwarded += n - first
        st.pending_cursor = n

    if n and np.any(outcomes == 255):
        raise InvariantViolation("disposition partition violated")
    return MitigationResult(outcomes, release_ns, drop_time_ns, st, _event_log(log))


def write_events_csv(path, events: EventLog) -> None:
    """Columns: event_time_s,event,from_seq,to_seq,m_value.

    from_seq/to_seq are 1-based stream positions (the auditing convention);
    subtract one to index the trace. m_value 0 means "not yet assigned".
    """
    write_columns(
        path,
        ["event_time_s", "event", "from_seq", "to_seq", "m_value"],
        [
            Seconds(events.time_ns),
            _KIND_BYTES[events.kind],
            events.first + 1,
            events.last + 1,
            events.skip,
        ],
    )
