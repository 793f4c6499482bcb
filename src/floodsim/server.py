"""FCFS server queueing via the Lindley recursion, exact in nanoseconds.

The waiting time obeys L_0 = 0, L_{n+1} = max(0, L_n + T_n - A_{n+1}) with
A_{n+1} the interarrival gap. A direct consequence worth naming: if the
arrival stream is paced at gap D and every service time satisfies T_n < D,
the wait never leaves zero -- the shaping gap provisions the server. The
service start instants s_n = a_n + L_n follow s_n = max(a_n, s_{n-1} +
T_{n-1}), which pacing.max_plus solves with W_n = T_0 + ... + T_{n-1}.

simulate_server draws service times from a regime-dependent model where the
regime is a function of wall-clock time (the load a real server sees while a
flood is in progress), decided by each packet's service *start* instant. So
the simulation walks the stream in regime-constant chunks, each over spans
of packets: a _FIRST_SPAN span, then spans that double up to one block,
each starting at the later of its first arrival and the last one's final
departure. A chunk keeps every packet whose service starts before its
regime boundary; only the rest of its last span is drawn again, by the next
chunk, so the work stays linear and no temporary spans the stream. Past
the last boundary one open chunk serves the stream to its end.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import Seconds, write_columns
from .model import BLOCK, CLOCK_NS, ConfigError, InvariantViolation, Regime, RngStream
from .model import ServiceTimeModel, as_times, is_sorted
from .pacing import max_plus, queue_timeline

_FIRST_SPAN = 1024  # packets in a regime chunk's first span


@dataclass
class RegimeSchedule:
    """Piecewise regime over time: Attack inside any [start, end) window of
    integer nanoseconds, Normal elsewhere. Windows are merged and sorted on
    construction."""

    attack_windows_ns: list

    def __post_init__(self):
        bounds = as_times([b for s, e in self.attack_windows_ns for b in (s, e)]).tolist()
        wins = sorted(zip(bounds[0::2], bounds[1::2]))
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
    """Per-packet result of a server run, in service (arrival) order.
    departure_ns, and seq in stream order, are computed on each read; in a
    run, arrival_ns may be one read-only array with emit_ns (SimulationResult)."""

    arrival_ns: np.ndarray  # arrival at the server
    wait_ns: np.ndarray
    service_ns: np.ndarray
    order: np.ndarray | None = None  # stream seq of each served packet, None: in stream order

    @property
    def seq(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64) if self.order is None else self.order

    def __len__(self) -> int:
        return len(self.arrival_ns)

    @property
    def departure_ns(self) -> np.ndarray:
        return self.arrival_ns + self.wait_ns + self.service_ns

    def queue_timeline(self, sample_dt_ns: int):
        """Queue length (waiting plus in service) sampled every sample_dt from 0."""
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

    Packet k's service time is drawn from the k-th of n standard normals,
    and in the attack regime also from the k-th of n uniforms drawn after
    them, so the consumed randomness does not depend on where regime
    boundaries fall. The uniforms are drawn only once an attack-regime chunk
    needs them; a run that never leaves the normal regime draws none.
    """
    a = as_times(arrival_ns)
    n = len(a)
    if seq is not None and (seq := np.asarray(seq, dtype=np.int64)).shape != (n,):
        raise ValueError("seq must be a 1-d array with one entry per arrival")
    if not is_sorted(a):
        raise ValueError("arrivals must be sorted")
    waits = np.empty(n, np.int64)
    services = np.empty(n, np.int64)
    if n == 0:
        return ServerTrace(a, waits, services, seq)

    g = rng.generator
    z = g.standard_normal(n)
    u = None

    idx, start = 0, int(a[0])  # the next packet to serve and its service start
    span = 0  # no span yet: the next one opens a regime chunk
    while idx < n:
        if not span:
            regime = Regime.ATTACK if schedule.in_attack(start) else Regime.NORMAL
            bound = schedule.next_boundary(start)
            if bound is not None and bound <= start:
                raise InvariantViolation(f"regime chunk at {start} ns is empty")
            if regime == Regime.ATTACK and u is None:
                u = g.random(n)
        span = min(BLOCK, 2 * span or _FIRST_SPAN)
        hi = min(n, idx + span)
        t_cand = model.draw_ns(regime, z[idx:hi], None if u is None else u[idx:hi])
        # a wrapped sum of services (each below 2**63) turns negative first; the
        # span's departures stay within its first start or last arrival plus the sum
        done = np.cumsum(t_cand)
        if done.item(done.argmin()) < 0 or max(start, a.item(hi - 1)) + done.item(-1) >= CLOCK_NS:
            raise ConfigError("service.* sum beyond the clock")
        starts = max_plus(a[idx:hi], done - t_cand, start)
        # the chunk keeps the packets whose service starts before its boundary
        take = hi - idx if bound is None else int(np.searchsorted(starts, bound, side="left"))
        np.subtract(starts[:take], a[idx : idx + take], out=waits[idx : idx + take])
        services[idx : idx + take] = t_cand[:take]
        idx += take
        if take < len(starts):
            # the boundary fell inside: the rest of the span is drawn again
            start, span = starts.item(take), 0
        elif idx < n:
            start = max(a.item(idx), starts.item(-1) + t_cand.item(-1))
    return ServerTrace(a, waits, services, seq)


def write_server_trace_csv(path, trace: ServerTrace) -> None:
    """Columns: seq,arrival_s,wait_s,service_s,departure_s (9-digit seconds)."""
    write_columns(
        path,
        ["seq", "arrival_s", "wait_s", "service_s", "departure_s"],
        [
            range(len(trace)) if trace.order is None else trace.order,
            Seconds(trace.arrival_ns),
            Seconds(trace.wait_ns),
            Seconds(trace.service_ns),
            Seconds(trace.departure_ns),
        ],
    )


def write_timeline_csv(path, times_ns, counts) -> None:
    """Columns: time_s,queue_len."""
    write_columns(path, ["time_s", "queue_len"], [Seconds(times_ns), counts])
