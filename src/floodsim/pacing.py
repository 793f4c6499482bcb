"""The paced forwarder: spaces an arrival stream so consecutive departures
are at least one gap apart, plus queue-length timelines for any FIFO stage.

Forwarding recursion: t_0 = a_0, t_{n+1} = max(t_n + gap, a_{n+1}), one
case of the max-plus recursion that max_plus solves in closed form over
int64 nanoseconds for the forwarder, the mitigation verdict clock and the
FCFS server alike. The shaping delay t_n - a_n is cross-checked in tests
against a literal loop of its own reflected recursion
q_{n+1} = max(0, q_n + gap - (a_{n+1} - a_n)).

Queue-occupancy convention used throughout the library: a packet occupies a
stage during the closed interval [entry, exit], i.e. a sample taken exactly
at the exit instant still counts the departing packet. A packet forwarded at
its own arrival instant therefore contributes one sample-visible unit only
when a sample lands exactly on it.
"""
from __future__ import annotations

import numpy as np

from .model import MAX_SAMPLES, ConfigError


def _as_times(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d array of nanosecond times")
    return arr


def max_plus(ready: np.ndarray, work_sum: np.ndarray, floor=None) -> np.ndarray:
    """Solve s_k = max(ready_k, s_{k-1} + work_k) over int64 arrays (unchecked),
    from s_{-1} = floor (-inf if None) and the partial sums W_k = work_0 + ...
    + work_k: s_k = W_k + max(floor, max_{i<=k}(ready_i - W_i)), exact in integers."""
    s = ready - work_sum
    np.maximum.accumulate(s, out=s)
    if floor is not None:
        np.maximum(s, floor, out=s)
    s += work_sum
    return s


def forward_times(arrival_ns, gap_ns: int) -> np.ndarray:
    """Departure instants of the paced forwarder (int64 ns): max_plus with
    W_k = k*gap and no floor."""
    a = _as_times(arrival_ns)
    gap = int(gap_ns)
    if gap <= 0:
        raise ValueError("pacing gap must be positive")
    if np.any(np.diff(a) < 0):
        raise ValueError("arrivals must be sorted")
    return max_plus(a, np.arange(len(a), dtype=np.int64) * gap)


def queue_timeline(entry_ns, exit_ns, sample_dt_ns: int):
    """Sampled occupancy of a FIFO stage: count(entry <= t) - count(exit < t).

    entry/exit need not pair up one-to-one (drops remove packets through a
    different exit array); both must be sorted. The grid runs from 0 to at
    least one step past the last entry or exit, so a drained stage ends at zero;
    a grid of over MAX_SAMPLES samples is a ConfigError, raised before it
    is allocated. Returns (times_ns, counts) as int64 arrays.
    """
    entry = _as_times(entry_ns)
    exits = _as_times(exit_ns)
    dt = int(sample_dt_ns)
    if dt <= 0:
        raise ValueError("sample_dt must be positive")
    last = max([0] + [int(times[-1]) for times in (entry, exits) if len(times)])
    n_steps = last // dt + 2
    if n_steps > MAX_SAMPLES:
        raise ConfigError(f"a queue timeline of {n_steps} samples is over {MAX_SAMPLES:.0e}")
    grid = dt * np.arange(n_steps, dtype=np.int64)
    n_in = np.searchsorted(entry, grid, side="right")
    n_out = np.searchsorted(exits, grid, side="left")
    return grid, (n_in - n_out).astype(np.int64)


def shaping_queue_timeline(arrival_ns, forward_ns, sample_dt_ns: int):
    """Queue length at the forwarder entrance, sampled every sample_dt.

    arrival and forward arrays must pair elementwise (same packets), so
    mismatched lengths are a precondition error.
    """
    a = _as_times(arrival_ns)
    t = _as_times(forward_ns)
    if len(a) != len(t):
        raise ValueError("arrival and forward arrays must have equal length")
    if np.any(t < a):
        raise ValueError("forwarding may not precede arrival")
    # counting only needs the multisets; held packets make t non-monotonic
    return queue_timeline(np.sort(a), np.sort(t), sample_dt_ns)


def peak_occupancy(entry_ns, exit_ns) -> int:
    """Exact maximum occupancy under the [entry, exit] closed convention
    (no sampling grid involved). Every exit must pair with an entry no later
    than itself, as a packet's does.

    Occupancy only rises at an entry instant, so the peak is the largest
    count(entry <= e) - count(exit < e) over the entries e. Over the sorted
    entries, k + 1 stands in for count(entry <= entry[k]): it is exact at the
    last of equal entries and smaller before it, so the maximum is the same.
    """
    # timsort: linear on the (nearly) sorted streams a simulation passes in
    entry = np.sort(_as_times(entry_ns), kind="stable")
    exits = np.sort(_as_times(exit_ns), kind="stable")
    entered = np.arange(1, len(entry) + 1, dtype=np.int64)
    return int((entered - np.searchsorted(exits, entry, side="left")).max(initial=0))
