"""The paced forwarder: spaces an arrival stream so consecutive departures
are at least one gap apart, plus queue-length timelines for any FIFO stage.

Forwarding recursion: t_0 = a_0, t_{n+1} = max(t_n + gap, a_{n+1}), one
case of the max-plus recursion that max_plus solves in closed form over
int64 nanoseconds for the forwarder, the mitigation verdict clock and the
FCFS server alike.

Queue-occupancy convention used throughout the library: a packet occupies a
stage during the closed interval [entry, exit], i.e. a sample taken exactly
at the exit instant still counts the departing packet. A packet forwarded at
its own arrival instant therefore contributes one sample-visible unit only
when a sample lands exactly on it.
"""
from __future__ import annotations

import numpy as np

from .model import BLOCK, CLOCK_NS, MAX_SAMPLES, ConfigError, is_sorted


def _as_times(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("nanosecond times must be integers (convert seconds with to_ns)")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d array of nanosecond times")
    return arr


def _sorted(x) -> np.ndarray:
    """The times themselves when they are already nondecreasing, else a
    stable-sorted copy: a simulation's streams are mostly in order."""
    arr = _as_times(x)
    if not is_sorted(arr):
        arr = np.sort(arr, kind="stable")
    return arr


def max_plus(ready: np.ndarray, work_sum: np.ndarray, floor=None) -> np.ndarray:
    """Solve s_k = max(ready_k, s_{k-1} + work_k) over int64 arrays, from
    s_{-1} = floor (-inf if None) and the partial sums W_k = work_0 + ... +
    work_k of works >= 0: s_k = W_k + max(floor, max_{i<=k}(ready_i - W_i)),
    exact in integers. An instant at or past CLOCK_NS is a ConfigError."""
    s = ready - work_sum
    np.maximum.accumulate(s, out=s)
    if floor is not None:
        np.maximum(s, floor, out=s)
    # both terms are nondecreasing, so the last instant is the latest
    if len(s) and s.item(-1) + work_sum.item(-1) >= CLOCK_NS:
        raise ConfigError("max-plus instants pass the nanosecond clock")
    s += work_sum
    return s


def forward_times(arrival_ns, gap_ns: int) -> np.ndarray:
    """Departure instants of the paced forwarder (int64 ns): max_plus with
    W_k = k*gap and no floor."""
    a = _as_times(arrival_ns)
    gap = int(gap_ns)
    if gap <= 0:
        raise ValueError("pacing gap must be positive")
    if not is_sorted(a):
        raise ValueError("arrivals must be sorted")
    if (len(a) - 1) * gap >= CLOCK_NS:
        raise ConfigError("the pacing gap carries departures past the clock")
    return max_plus(a, np.arange(len(a), dtype=np.int64) * gap)


def queue_timeline(entry_ns, exit_ns, sample_dt_ns: int):
    """Sampled occupancy of a FIFO stage: count(entry <= t) - count(exit < t).

    entry/exit need not pair up one-to-one (drops remove packets through a
    different exit array); both must be sorted. The grid runs from 0 to at
    least one step past the last entry or exit, so a drained stage ends at zero;
    a grid of over MAX_SAMPLES samples, or one that reaches CLOCK_NS, is a
    ConfigError, raised before it is allocated. Returns (times_ns, counts) as
    int64 arrays.
    """
    entry = _as_times(entry_ns)
    exits = _as_times(exit_ns)
    if not (is_sorted(entry) and is_sorted(exits)):
        raise ValueError("entry and exit times must be sorted")
    return _timeline(entry, exits, sample_dt_ns)


def _timeline(entry: np.ndarray, exits: np.ndarray, sample_dt_ns: int):
    """queue_timeline of int64 times already known to be sorted."""
    dt = int(sample_dt_ns)
    if dt <= 0:
        raise ValueError("sample_dt must be positive")
    last = max([0] + [int(times[-1]) for times in (entry, exits) if len(times)])
    n_steps = last // dt + 2
    if n_steps > MAX_SAMPLES:
        raise ConfigError(f"a queue timeline of {n_steps} samples is over {MAX_SAMPLES:.0e}")
    if (n_steps - 1) * dt >= CLOCK_NS:
        raise ConfigError(f"a queue timeline sampled every {dt} ns passes the clock")
    grid = dt * np.arange(n_steps, dtype=np.int64)
    n_in = np.searchsorted(entry, grid, side="right")
    n_out = np.searchsorted(exits, grid, side="left")
    return grid, (n_in - n_out).astype(np.int64)


def shaping_queue_timeline(arrival_ns, forward_ns, sample_dt_ns: int):
    """Queue length at the forwarder entrance, sampled every sample_dt, from
    one entry and one exit instant per packet. Counting needs only the
    multisets; the check that no exit precedes its entry (t < a) pairs them by
    position. A run passes both sorted, drop instants merged into the exits,
    so it compares the k-th earliest exit with the k-th earliest arrival.
    """
    a = _as_times(arrival_ns)
    t = _as_times(forward_ns)
    if len(a) != len(t):
        raise ValueError("arrival and forward arrays must have equal length")
    if np.any(t < a):
        raise ValueError("forwarding may not precede arrival")
    return _timeline(_sorted(a), _sorted(t), sample_dt_ns)


_STRIDE = 64  # entries between the samples that bracket peak_occupancy


def _exceeds(entry: np.ndarray, exits: np.ndarray, p: int) -> bool:
    """Whether the peak passes p < len(entry): some k >= p has no (k - p)-th
    exit or one no earlier than entry k. One pass in BLOCK chunks, up to a hit."""
    head, tail = exits[: len(entry) - p], entry[p:]
    return len(tail) > len(exits) or any(
        (head[j : j + BLOCK] >= tail[j : j + BLOCK]).any() for j in range(0, len(head), BLOCK)
    )


def peak_occupancy(entry_ns, exit_ns) -> int:
    """Exact maximum occupancy under the [entry, exit] closed convention
    (no sampling grid involved). Every exit must pair with an entry no later
    than itself, as a packet's does.

    Occupancy only rises at an entry instant, so the peak is the largest of 0
    and f(k) = k + 1 - count(exit < entry[k]) over the sorted entries: k + 1
    stands in for count(entry <= entry[k]), exact at the last of equal entries
    and smaller before it, so the maximum is the same. Two facts find it:
    f(k) - f(s) <= k - s for k >= s, so the largest L of f at every _STRIDE-th
    entry brackets L <= peak <= L + _STRIDE - 1; and peak > p exactly when some
    k >= p has k - p >= len(exits) or exits[k - p] >= entry[k], a test monotone
    in p. A gallop up from L - 1, then a bisection of the bracket, takes at most
    2*ceil(log2 _STRIDE) + 1 passes of that test; only failing ones read the
    whole stream. Neither sorts nor merges; no temporary spans the stream.
    """
    entry, exits = _sorted(entry_ns), _sorted(exit_ns)
    sampled = np.arange(1, len(entry) + 1, _STRIDE) - exits.searchsorted(entry[::_STRIDE])
    lo, step = int(sampled.max(initial=0)) - 1, 1  # the peak passes lo ...
    hi = min(len(entry), lo + _STRIDE)  # ... and not hi
    while lo + step < hi and _exceeds(entry, exits, lo + step):
        lo, step = lo + step, 2 * step
    hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _exceeds(entry, exits, mid) else (lo, mid)
    return hi
