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

FixedSkip holds a constant m. Under AdaptiveSkip every ATTACK verdict sets
m = optimal_skip(W, beta/alpha, queue estimate), logging RECALC_M when m
changes. The queue estimate at a verdict is "packets arrived so far, minus
packets disposed through the current window end" -- released-but-unpaced
packets count as gone, a documented desk-scale simplification.

The machine runs in time linear in the stream, on prefix sums of the
detector labels. One block step decides a run of windows with one verdict,
the same way for both verdicts. Clear windows tile the stream back to back
from the test cursor; attack windows under FixedSkip start W - 1 + m apart,
and AdaptiveSkip recomputes the skip at each verdict, so its attack runs are
one window long. A doubling search over the votes finds the run's end, one
pacing.max_plus call gives its verdict instants v_j = max(a_end_j, v_{j-1} +
len_j*D), and the block records them with its window starts and ends, the
first packet it drops or forwards and the skip before and after it; a partial
tail window is a run of one window, its end clamped to the stream's, and the
stream-end flush is the last record, a clear window that tests nothing. So
the records alone tile the stream, and MitigationResult reads the event log
and the per-packet outcomes from one per-window table of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .csvio import Seconds, write_columns
from .detector import DetectorModel, classify_stream
from .model import BLOCK, CLOCK_NS, ConfigError, InvariantViolation, PacketClass, RngStream, Trace
from .model import as_times, check_skip
from .pacing import max_plus

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
    rounded half-up and clamped to >= 1. A burst that fits one window
    (expected_packets <= window) gets 1 as well. Deliberately independent
    of the benign fraction and of the per-packet test time: both cancel in
    the optimality condition.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not beta_over_alpha > 0:
        raise ValueError("beta_over_alpha must be positive")
    if expected_packets <= window:
        return 1
    raw = math.sqrt(2.0 * beta_over_alpha * window * (expected_packets - window)) - window
    # an infinite ratio rounds to 2**63 as well, so the one skip rule refuses both
    m = max(1, math.floor(min(raw, 2.0**63) + 0.5))
    return check_skip(m, "the cost-optimal skip for cost.beta / cost.alpha")


@dataclass
class FixedSkip:
    """A constant skip length, set before the first verdict."""

    skip: int

    def __post_init__(self):
        self.skip = check_skip(self.skip, "skip")


@dataclass
class AdaptiveSkip:
    """The skip optimal_skip(window, beta_over_alpha, queue estimate), set at
    each attack verdict; the queue stands in for the remaining attack volume."""

    beta_over_alpha: float


@dataclass
class MitigationEvent:
    """One event-log row. first/last are 0-based inclusive stream indices;
    the CSV writer converts to the 1-based positions used for auditing."""

    time_ns: int
    kind: str
    first: int
    last: int
    skip: int   # current skip length, 0 while not yet assigned


EVENT_KINDS = ("WINDOW_ATTACK", "WINDOW_CLEAR", "RECALC_M", "DROP_RANGE", "FORWARD_RANGE")
_ATTACK, _CLEAR, _RECALC, _DROP, _FORWARD = range(len(EVENT_KINDS))
_KIND_BYTES = np.array([k.encode() for k in EVENT_KINDS])


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


def _windows(res: "MitigationResult") -> tuple:
    """Per-window table of a result's block records, the stream-end flush last
    as a clear window that tests no packet: range first, window start, end
    (inclusive), verdict instant, attack, and the skip before and after it."""
    if not res.blocks:
        return (np.empty(0, np.int64),) * 4 + (np.empty(0, bool),) + (np.empty(0, np.int64),) * 2
    attack, _, _, before, after, starts, ends, now = zip(*res.blocks)
    k = np.fromiter(map(len, ends), np.int64, len(ends))
    starts, ends, now = map(np.concatenate, (starts, ends, now))
    first = np.concatenate(([0], ends[:-1] + 1))  # each range starts past the end before
    return first, starts, ends, now, *(np.repeat(c, k) for c in (attack, before, after))


def _outcomes(first, start, end, attack) -> np.ndarray:
    """The per-packet Outcome codes (uint8) of a per-window table."""
    codes = np.where(attack[:, None], Outcome.DROPPED, [Outcome.FORWARDED, Outcome.TESTED_FORWARDED])
    lengths = np.column_stack((start - first, end + 1 - start))
    return codes.astype(np.uint8).ravel().repeat(lengths.ravel())


def _expand_log(res: "MitigationResult") -> EventLog:
    """The EventLog of a result's block records, in one pass: each window's
    verdict (none for one that tests nothing), RECALC_M if the skip changed,
    its range."""
    range_first, starts, ends, now, attack, before, after = _windows(res)
    rows = 2 + (attack & (before != after)) - (starts > ends)  # per window
    verdict = np.cumsum(rows) - rows
    ranged = verdict + rows - 1
    kind = np.full(rows.sum(), _RECALC, np.uint8)
    kind[verdict] = np.where(attack, _ATTACK, _CLEAR)
    kind[ranged] = np.where(attack, _DROP, _FORWARD)
    firsts, skips = starts.repeat(rows), after.repeat(rows)
    firsts[ranged], skips[verdict] = range_first, before
    return EventLog(now.repeat(rows), kind, firsts, ends.repeat(rows), skips)


def _check_partition(blocks: list, n: int) -> None:
    """Raise InvariantViolation unless the block records' ranges tile the n
    packets in order."""
    if [0, *(b[2] for b in blocks)] != [*(b[1] for b in blocks), n]:
        raise InvariantViolation("disposition partition violated")


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
    """Final counters and the block records. events is the event log, built
    on first read and then held; outcomes, release_ns, drop_time_ns and
    released() are computed on each read from the per-window table of the
    records, whose ranges tile the stream in order, each with its packets'
    verdict instant."""

    state: MitigationState
    arrival_ns: np.ndarray  # the trace's arrivals, not a copy
    blocks: list            # one record per block step, the flush last; see run_mitigation

    @cached_property
    def events(self) -> EventLog:
        return _expand_log(self)

    @property
    def outcomes(self) -> np.ndarray:
        """uint8 of Outcome, one per packet: an attack window's range is dropped;
        a clear one's is forwarded, its window's own packets tested."""
        first, start, end, _, attack, *_ = _windows(self)
        return _outcomes(first, start, end, attack)

    @property
    def drop_time_ns(self) -> np.ndarray:
        """int64 verdict instant that dropped a packet, -1 otherwise."""
        if not self.state.packets_dropped:
            return np.full(len(self.arrival_ns), -1, np.int64)
        first, _, end, now, attack, *_ = _windows(self)
        return np.where(attack, now, -1).repeat(end + 1 - first)

    @property
    def release_ns(self) -> np.ndarray:
        """int64 instant a packet became forwardable, -1 if dropped: its range's
        verdict instant, or its arrival if tested or flushed from the final test
        cursor on. With none dropped none was held: a read-only view of the arrivals."""
        if not self.state.packets_dropped:
            return np.broadcast_to(self.arrival_ns, self.arrival_ns.shape)  # a read-only view
        return self._release(_windows(self))

    def released(self) -> tuple:
        """The stream the shaper receives, as (seq, instants, drops): forwarded
        packets in (release instant, seq) order, their release instants, and the
        drop verdict instants in seq order; (None, arrivals, None) if none held."""
        if not self.state.packets_dropped:
            return None, self.arrival_ns, None
        first, _, end, now, attack, *_ = table = _windows(self)
        release = self._release(table)
        seq = np.flatnonzero(release >= 0)
        seq = seq[np.argsort(release[seq], kind="stable")]
        return seq, release[seq], now[attack].repeat((end + 1 - first)[attack])

    def _release(self, table: tuple) -> np.ndarray:
        """release_ns from the per-window table, with packets dropped."""
        first, start, end, now, attack, *_ = table
        out = np.where(attack, -1, now).repeat(end + 1 - first)
        at_arrival = _outcomes(first, start, end, attack) == Outcome.TESTED_FORWARDED
        at_arrival[self.state.test_cursor :] = True  # none dropped there
        np.copyto(out, self.arrival_ns, where=at_arrival)
        return out


_FIRST_SPAN_WINDOWS = 64  # windows in the first span searched for a verdict


def _first_window(votes: np.ndarray, start: int, window: int, stride: int, count: int,
                  attack: bool) -> int:
    """Index of the first of `count` windows of `window` packets, starting
    `stride` apart from `start`, whose verdict is attack (a strict majority
    of attack labels) if `attack` is true and clear otherwise; `count` if
    none is. The window at `start` is not searched, since its verdict is
    already known to be the other one.

    The span of windows searched doubles until it holds one, so the cost
    follows the answer rather than `count`.
    """
    lo, span = 1, _FIRST_SPAN_WINDOWS
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
    """Run the index machine over a stream and return its final counters and
    block records, from which the event log and per-packet outcomes are read,
    testing windows of detector.window packets.

    labels may be precomputed; otherwise the whole stream is classified up
    front from rng (one draw per packet, so outcomes are reproducible no
    matter how the windows fall). test_pacing_ns > 0 spaces verdicts at
    least window_len*test_pacing apart, as for a detector fed through the
    paced link; 0 decides at the window's last arrival, < 0 is a ValueError.

    The trailing partial window at stream end is tested when at least
    ceil(window/2) packets remain, otherwise the leftovers are forwarded
    untested at the last arrival: the last record, a clear window that tests
    nothing. policy is a FixedSkip or an AdaptiveSkip, else a TypeError.
    """
    fixed = isinstance(policy, FixedSkip)
    if not fixed and not isinstance(policy, AdaptiveSkip):
        raise TypeError(f"policy must be a FixedSkip or an AdaptiveSkip, not {policy!r}")
    window = detector.window
    if window < 1:
        raise ValueError("window must be >= 1")
    pace = as_times(test_pacing_ns, ndim=0)
    if pace < 0:
        raise ValueError("test_pacing_ns must be >= 0")
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
    votes = np.empty(n + 1, np.int64)  # votes[k]: attack labels among the first k
    votes[0] = 0
    for lo in range(0, n, BLOCK):  # a cumsum casts all of its input to int64 first
        run = votes[lo + 1 : lo + 1 + BLOCK]
        np.cumsum(labels[lo : lo + BLOCK] == int(PacketClass.ATTACK), out=run)
        run += votes[lo]
    st = MitigationState(skip=policy.skip if fixed else 0)
    blocks: list = []  # (attack, first, end, skip before, skip after, starts, ends, verdicts)
    min_tail = math.ceil(window / 2)  # a shorter partial window goes untested

    last_verdict_ns = None
    while n - st.test_cursor >= min_tail:
        # a block decides the run of windows up to the first with the other verdict
        # (see the module notes), then drops or forwards all pending through its end
        first, c = st.pending_cursor, st.test_cursor
        last = min(c + window, n)
        attack = 2 * (votes.item(last) - votes.item(c)) > last - c  # a strict majority
        recompute = attack and not fixed  # the skip may change at this verdict
        # an adaptive skip is 0 until its first verdict, so it never sets a stride
        stride = window - 1 + st.skip if attack and fixed else window
        full = (n - c - window) // stride + 1 if n - c >= window else 0
        # with no full window left (full == 0) the block is the partial tail window, cut at n
        k = _first_window(votes, c, window, stride, 1 if recompute else full, not attack) or 1
        starts = np.arange(c, c + k * stride, stride, dtype=np.int64)
        ends = np.minimum(starts + (window - 1), n - 1)
        end = int(ends[-1]) + 1
        # work summed past the first verdict, whose wait joins the floor: no sum wraps
        work = np.cumsum(ends - starts + 1)
        head = work.item(0)
        if (work.item(-1) - head) * pace >= CLOCK_NS:
            raise ConfigError("verdict pacing carries the verdicts past the clock")
        floor = None if last_verdict_ns is None else min(last_verdict_ns + head * pace, CLOCK_NS)
        now = max_plus(arrivals[ends], (work - head) * pace, floor)
        last_verdict_ns = int(now[-1])
        skip_before = st.skip
        if recompute:
            arrived = int(arrivals.searchsorted(now[0], side="right"))
            st.skip = optimal_skip(window, policy.beta_over_alpha, float(max(0, arrived - end)))
        blocks.append((attack, first, end, skip_before, st.skip, starts, ends, now))
        if attack:
            # each packet is dropped at most once, so these counts sum to at most n
            n_att = int(np.count_nonzero(trace.klass[first:end] == int(PacketClass.ATTACK)))
            st.packets_dropped += end - first
            st.attack_dropped += n_att
            st.benign_dropped += end - first - n_att
            st.test_cursor = end - 1 + st.skip
        else:
            st.packets_forwarded += end - first
            st.test_cursor = end
        # a window counts as mitigation when the verdict before it was an attack
        st.mitigation_windows += attack * (k - 1) + (st.mode == Mode.UNDER_ATTACK)
        st.episodes += attack and st.mode == Mode.MONITORING
        st.mode = Mode.UNDER_ATTACK if attack else Mode.MONITORING
        st.windows_tested += k
        st.pending_cursor = end

    if st.pending_cursor < n:  # stream end: flush the leftovers untested
        blocks.append((False, st.pending_cursor, n, st.skip, st.skip, [n], [n - 1], arrivals[-1:]))
        st.packets_forwarded += n - st.pending_cursor
        st.pending_cursor = n
    _check_partition(blocks, n)
    return MitigationResult(st, arrivals, blocks)


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
