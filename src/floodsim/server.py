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
of packets, each span starting at the later of its first arrival and the
last one's final departure. A chunk keeps every packet whose service starts
before its regime boundary, or past the last boundary before the clock. Its
first span holds the services of the regime mean that fit before that
bound, plus a slack, and no packet that arrives after it; spans then double
up to one block while the chunk lasts. The walk only solves: every packet's
service in a regime is drawn once, a block at a time, before a span reads
it (the normal regime's before the walk, straight into the output, the
attack regime's when its first chunk opens), so what a chunk does not keep
stays in place for the next one. The work stays linear and no temporary
spans the stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import Seconds, write_columns
from .model import BLOCK, CLOCK_NS, NS_PER_S, ConfigError, InvariantViolation, Regime
from .model import RngStream, ServiceTimeModel, as_times, is_sorted
from .pacing import max_plus, queue_timeline

_SLACK = 16  # packets a bounded chunk's first span holds beyond its estimate


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
        return self._bounds.searchsorted(times_ns, side="right") % 2 == 1

    def next_boundary(self, t_ns: int) -> int:
        """Smallest window boundary strictly after t, or CLOCK_NS past the last."""
        k = int(self._bounds.searchsorted(t_ns, side="right"))
        return int(self._bounds[k]) if k < len(self._bounds) else CLOCK_NS


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
    force at that packet's service start: one outer pass per regime chunk,
    up to schedule.next_boundary there, and an inner one per span.

    Packet k's service time is drawn from the k-th of n standard normals,
    and in the attack regime also from the k-th of n uniforms drawn after
    them, so the consumed randomness does not depend on where regime
    boundaries fall. Every packet's normal-regime service is drawn; the
    uniforms and every attack-regime one only once an attack-regime chunk
    opens, so a run that never leaves the normal regime draws none.

    An arrival at or past CLOCK_NS is a ConfigError, and so is a drawn
    service that alone does not fit the clock, also one served in the other
    regime. Besides, one is raised exactly when a packet that a chunk keeps
    would depart at or past CLOCK_NS: a span is cut before the first packet
    whose departure may reach the clock, and that packet, once it leads a
    span and its departure is exact, is refused only if it starts before
    the boundary.
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
    if a.item(-1) >= CLOCK_NS:  # it would depart past the clock
        raise ConfigError("an arrival at or past the nanosecond clock")

    g = rng.generator
    z = g.standard_normal(n)
    for lo in range(0, n, BLOCK):
        services[lo : lo + BLOCK] = model.draw_ns(Regime.NORMAL, z[lo : lo + BLOCK], None)
    attack = None  # drawn over z's buffer once an attack-regime chunk opens

    idx, start = 0, int(a[0])  # the next packet to serve and its service start
    while idx < n:  # one pass per regime chunk
        regime = Regime.ATTACK if schedule.in_attack(start) else Regime.NORMAL
        bound = schedule.next_boundary(start)
        if bound <= start:
            raise InvariantViolation(f"regime chunk at {start} ns is empty")
        if regime == Regime.ATTACK:
            if attack is None:
                attack = z.view(np.int64)  # a block's normals are read before it is written
                for lo in range(0, n, BLOCK):
                    zb = z[lo : lo + BLOCK]
                    attack[lo : lo + BLOCK] = model.draw_ns(regime, zb, g.random(len(zb)))
            drawn, mean_s = attack, model.mean_attack_s
        else:
            drawn, mean_s = services, model.mean_normal_s
        # the services of the regime mean that fit before the bound
        fit = (bound - start) / (mean_s * NS_PER_S)
        span = int(min(BLOCK, fit + fit / 8 + _SLACK))
        end = int(a.searchsorted(bound))  # the packets that arrive before it
        while idx < n and start < bound:  # one pass per span
            hi = min(end, idx + span)
            t = drawn[idx:hi]
            done = t.cumsum()
            # a wrapped sum of services (each below 2**63) turns negative first;
            # packet k departs by the later of start and a_k, plus done_k
            if done.item(done.argmin()) < 0 or max(start, a.item(hi - 1)) + done.item(-1) >= CLOCK_NS:
                late = (done < 0) | (done >= CLOCK_NS - np.maximum(a[idx:hi], start))
                cut = int(late.argmax())
                if not cut:  # start is exact: the chunk keeps a packet past the clock
                    raise ConfigError("service.* sum beyond the clock")
                hi, t, done = idx + cut, t[:cut], done[:cut]
            starts = max_plus(a[idx:hi], done - t, start)
            # the chunk keeps the packets whose service starts before its boundary
            take = int(starts.searchsorted(bound))
            np.subtract(starts[:take], a[idx : idx + take], out=waits[idx : idx + take])
            if regime == Regime.ATTACK:
                services[idx : idx + take] = t[:take]
            idx += take
            if take < len(starts):  # the boundary fell inside: the next chunk starts there
                start = starts.item(take)
            elif idx < n:
                start = max(a.item(idx), starts.item(-1) + t.item(-1))
            span = min(BLOCK, 2 * span)
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
