"""Arrival-stream generation: periodic benign sources, Poisson flood bursts,
stream merging, and the trace CSV format.

Conventions: every flood has source_id 0 and benign sources number upward
from 1, so equal-timestamp ties resolve flood-first, then by ascending benign
source. Within one source, ties keep generation order.
"""
from __future__ import annotations

import csv
import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, InvalidOperation
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvio import Seconds, write_columns
from .model import ConfigError, PacketClass, RngStream, Trace, to_ns

_LETTER_CLASS = {"B": int(PacketClass.BENIGN), "A": int(PacketClass.ATTACK)}
_CLASS_LETTERS = np.array([b"B", b"A"])  # indexed by class value
_TRACE_HEADER = ["seq", "arrival_time_s", "class", "source_id"]
_INT64_RANGE = (-(2**63), 2**63 - 1)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)  # scaling never rounds


@dataclass
class BenignSpec:
    """Background traffic: each source emits one packet per period, jittered
    uniformly within jitter_fraction of the period."""

    period_s: float
    jitter_fraction: float = 0.0
    num_sources: int = 1

    def __post_init__(self):
        if not 0 < self.period_s < math.inf:
            raise ConfigError("benign period must be positive and finite")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigError("jitter_fraction must lie in [0, 1)")
        if self.num_sources < 1:
            raise ConfigError("num_sources must be >= 1")

    @property
    def rate_pps(self) -> float:
        return self.num_sources / self.period_s


@dataclass
class FloodSpec:
    """A flood burst: Poisson arrivals at rate_pps over [start, start+duration)."""

    start_s: float
    duration_s: float
    rate_pps: float

    def __post_init__(self):
        if not 0 <= self.start_s < math.inf:
            raise ConfigError("flood start must be >= 0 and finite")
        if not 0 < self.duration_s < math.inf:
            raise ConfigError("flood duration must be positive and finite")
        if not 0 < self.rate_pps < math.inf:
            raise ConfigError("flood rate must be positive and finite")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


def _one_source(arrival_ns, klass: PacketClass, source_id: int) -> Trace:
    n = len(arrival_ns)
    return Trace(arrival_ns, np.full(n, int(klass), np.uint8), np.full(n, source_id, np.int32))


def gen_benign(spec: BenignSpec, horizon_s: float, rng: RngStream) -> Trace:
    """Generate benign traffic on [0, horizon) from sources 1..num_sources.
    Arrival k of a source sits at k*period + U[0, jitter_fraction*period)."""
    if horizon_s < 0:
        raise ValueError("horizon must be >= 0")
    n_per = math.ceil(horizon_s / spec.period_s)
    g = rng.generator
    base = np.arange(n_per, dtype=np.float64) * spec.period_s
    parts = []
    for source in range(1, spec.num_sources + 1):
        jitter = g.random(n_per) * (spec.jitter_fraction * spec.period_s)
        parts.append(_one_source(to_ns(base + jitter), PacketClass.BENIGN, source))
    return merge(parts)


def gen_flood(spec: FloodSpec, rng: RngStream) -> Trace:
    """Generate one flood burst from source 0. The realized packet count is
    Poisson with mean rate*duration; arrival instants are iid uniform over
    the window."""
    g = rng.generator
    n = int(g.poisson(spec.rate_pps * spec.duration_s))
    offsets = np.sort(g.random(n)) * spec.duration_s
    return _one_source(to_ns(spec.start_s + offsets), PacketClass.ATTACK, 0)


def merge(traces: Sequence[Trace]) -> Trace:
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
    source = np.concatenate([t.source_id for t in traces])
    # timsort merges the sorted runs in linear time; equal arrivals keep
    # their input order, which the groups of them below then put right
    order = np.argsort(arrival, kind="stable")
    arrival = arrival[order]
    tied = np.flatnonzero(arrival[1:] == arrival[:-1])
    if len(tied):
        at = np.union1d(tied, tied + 1)  # every member of a group of equal arrivals
        idx = order[at]
        offsets = np.cumsum([0] + [len(t) for t in traces[:-1]])
        position = idx - offsets[np.searchsorted(offsets, idx, side="right") - 1]
        order[at] = idx[np.lexsort((position, source[idx], arrival[at]))]
    klass = np.concatenate([t.klass for t in traces])
    return Trace(arrival, klass[order], source[order])


def write_trace_csv(path, trace: Trace) -> None:
    """Columns: seq,arrival_time_s,class,source_id with class in {B,A}."""
    if len(trace) and trace.klass.max() >= len(_CLASS_LETTERS):
        raise ValueError(f"unknown packet class {int(trace.klass.max())}")
    write_columns(
        path,
        _TRACE_HEADER,
        [np.arange(len(trace)), Seconds(trace.arrival_ns), _CLASS_LETTERS[trace.klass], trace.source_id],
    )


def _parse_ns(text: str) -> int:
    """Decimal seconds -> integer ns, rounded half to even, with no float step."""
    try:
        sec = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not a time value: {text!r}") from None
    if not sec.is_finite():
        raise ValueError("time values must be finite")
    ns = sec.scaleb(9, _EXACT).to_integral_value(ROUND_HALF_EVEN, _EXACT)
    if not _INT64_RANGE[0] <= ns <= _INT64_RANGE[1]:
        raise ValueError(f"time value out of range: {text!r}")
    return int(ns)


def read_trace_csv(path) -> Trace:
    """Inverse of write_trace_csv; validates ordering and dense seq."""
    arrivals, klasses, sources = [], [], []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != _TRACE_HEADER:
            raise ValueError(f"unexpected trace header: {header}")
        for k, row in enumerate(r):
            try:
                if len(row) != 4:
                    raise ValueError(f"expected 4 fields, got {len(row)}")
                if int(row[0]) != k:
                    raise ValueError(f"non-dense seq: {row[0]}")
                if row[2] not in _LETTER_CLASS:
                    raise ValueError(f"unknown class letter {row[2]!r}")
                arrival, source = _parse_ns(row[1]), int(row[3])
                if not -2**31 <= source < 2**31:
                    raise ValueError(f"source_id out of int32 range: {row[3]}")
            except ValueError as exc:
                raise ValueError(f"trace row {k}: {exc}") from exc
            arrivals.append(arrival)
            klasses.append(_LETTER_CLASS[row[2]])
            sources.append(source)
    trace = Trace(
        np.array(arrivals, np.int64),
        np.array(klasses, np.uint8),
        np.array(sources, np.int32),
    )
    trace.validate()
    return trace
