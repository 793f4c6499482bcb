"""FCFS server queueing via the Lindley recursion, exact in nanoseconds.

The waiting time obeys L_0 = 0, L_{n+1} = max(0, L_n + T_n - A_{n+1}) with
A_{n+1} the interarrival gap. A direct consequence worth naming: if the
arrival stream is paced at gap D and every service time satisfies T_n < D,
the wait never leaves zero -- the shaping gap provisions the server. The
service start instants s_n = a_n + L_n follow s_n = max(a_n, s_{n-1} +
T_{n-1}), which pacing.max_plus solves with W_n = T_0 + ... + T_{n-1}.

simulate_server draws service times from a regime-dependent model where the
regime is a function of wall-clock time (the load a real server sees while a
flood is in progress). The regime of packet n is decided by its service
*start* instant, which itself depends on earlier waits, so the simulation
walks the stream in regime-constant chunks, each chunk fully vectorized.
A chunk's end is only known after its waits are, so each chunk draws and
runs the recursion over a candidate span of packets, doubling the span until
the chunk's regime boundary falls inside it. The span carries over to the
next chunk (halved after a chunk that used less than a quarter of it), which
keeps the work linear in the stream length instead of proportional to the
stream length times the chunk count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .csvio import Seconds, write_columns
from .model import MAX_TIME_S, NS_PER_S, ConfigError, InvariantViolation, Regime, RngStream
from .model import ServiceTimeModel
from .pacing import _as_times, max_plus, queue_timeline

_FIRST_SPAN = 1024  # packets in a chunk's first candidate span
_CLOCK_NS = int(MAX_TIME_S * NS_PER_S)  # no start or departure may reach it


@dataclass
class RegimeSchedule:
    """Piecewise regime over time: Attack inside any [start, end) window,
    Normal elsewhere. Windows are merged and sorted on construction."""

    attack_windows_ns: list

    def __post_init__(self):
        wins = sorted((int(s), int(e)) for s, e in self.attack_windows_ns)
        merged: list[tuple[int, int]] = []
        for s, e in wins:
            if e <= s:
                raise ValueError("attack window must have positive length")
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self.attack_windows_ns = merged
        self._bounds = np.array([b for w in merged for b in w], dtype=np.int64)

    def in_attack(self, times_ns):
        """True where a time lies inside an attack window (scalar or array)."""
        return np.searchsorted(self._bounds, times_ns, side="right") % 2 == 1

    def next_boundary(self, t_ns: int):
        """Smallest window boundary strictly after t, or None."""
        k = int(np.searchsorted(self._bounds, t_ns, side="right"))
        if k >= len(self._bounds):
            return None
        return int(self._bounds[k])


NORMAL_ALWAYS = RegimeSchedule([])


@dataclass
class ServerTrace:
    """Per-packet result of a server run, in service (arrival) order."""

    seq: np.ndarray         # original stream seq of each served packet
    arrival_ns: np.ndarray  # arrival at the server
    wait_ns: np.ndarray
    service_ns: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_ns)

    @cached_property
    def departure_ns(self) -> np.ndarray:
        return self.arrival_ns + self.wait_ns + self.service_ns

    def queue_timeline(self, sample_dt_ns: int):
        """Queue length sampled every sample_dt from 0, counting waiting plus
        in-service packets."""
        return queue_timeline(self.arrival_ns, self.departure_ns, sample_dt_ns)


def simulate_server(
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
    a = _as_times(arrival_ns)
    n = len(a)
    seq = np.arange(n, dtype=np.int64) if seq is None else np.asarray(seq, dtype=np.int64)
    if seq.shape != (n,):
        raise ValueError("seq must be a 1-d array with one entry per arrival")
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
    start = int(a[0])  # service start of the chunk's first packet
    span = _FIRST_SPAN
    while idx < n:
        regime = Regime.ATTACK if schedule.in_attack(start) else Regime.NORMAL
        bound = schedule.next_boundary(start)
        while True:
            hi = n if bound is None else min(n, idx + span)
            t_cand = model.draw_ns(regime, z[idx:hi], u[idx:hi])
            # a wrapped sum of services (each below 2**63) turns negative first; the
            # span's departures stay within its first start or last arrival plus the sum
            done = np.cumsum(t_cand)
            if done.item(done.argmin()) < 0 or max(start, a.item(hi - 1)) + done.item(-1) >= _CLOCK_NS:
                raise ConfigError("service.* sum beyond the clock")
            starts = max_plus(a[idx:hi], done - t_cand, start)
            take = hi - idx
            if bound is not None:
                # the chunk ends at the first packet whose service starts at
                # or after the boundary; it must fall inside the span
                take = int(np.searchsorted(starts, bound, side="left"))
            if take < hi - idx or hi == n:
                break
            span *= 2
        # shrink after a short chunk, so one long chunk cannot inflate the
        # spans of all the chunks after it
        if take < span // 4:
            span = max(_FIRST_SPAN, span // 2)
        if take < 1:
            # the first packet's start defines the regime, so it must fit
            raise InvariantViolation(f"regime chunk at {start} ns is empty")
        np.subtract(starts[:take], a[idx : idx + take], out=waits[idx : idx + take])
        services[idx : idx + take] = t_cand[:take]
        if idx + take < n:
            start = int(starts[take])
        idx += take
    return ServerTrace(seq, a, waits, services)


def write_server_trace_csv(path, trace: ServerTrace) -> None:
    """Columns: seq,arrival_s,wait_s,service_s,departure_s (9-digit seconds)."""
    write_columns(
        path,
        ["seq", "arrival_s", "wait_s", "service_s", "departure_s"],
        [
            trace.seq,
            Seconds(trace.arrival_ns),
            Seconds(trace.wait_ns),
            Seconds(trace.service_ns),
            Seconds(trace.departure_ns),
        ],
    )


def write_timeline_csv(path, times_ns, counts) -> None:
    """Columns: time_s,queue_len."""
    write_columns(path, ["time_s", "queue_len"], [Seconds(times_ns), counts])
