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
from .model import BLOCK, NS_PER_S, ConfigError, PacketClass, RngStream, Trace, is_sorted, to_ns

_LETTER_CLASS = {"B": int(PacketClass.BENIGN), "A": int(PacketClass.ATTACK)}
_LETTER_B = np.uint8(ord("B"))  # less the class value: B for benign (0), A for attack (1)
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


def gen_benign(spec: BenignSpec, horizon_s: float, rng: RngStream) -> Trace:
    """Generate benign traffic from sources 1..num_sources, ceil(horizon /
    period) packets each: one per period that starts before the horizon, so
    the last period's jitter can carry its packets past the horizon.
    Arrival k of a source sits at k*period + U[0, jitter_fraction*period);
    the jitters are drawn source by source, each source's in arrival order.
    Equal arrivals go lower source first."""
    ns, grid, last = _draw_ns(spec, horizon_s, rng, (), ())
    shift = spec.num_sources.bit_length()
    if last < 1 << (63 - shift):
        arrival, source = _sort_packed(ns, grid, shift)
    else:
        arrival, source = _sort_stable(grid)
    return Trace(arrival, np.full(len(arrival), int(PacketClass.BENIGN), np.uint8), source)


def gen_flood(spec: FloodSpec, rng: RngStream) -> Trace:
    """Generate one flood burst from source 0. The realized packet count is
    Poisson with mean rate*duration; arrival instants are iid uniform over
    the window."""
    arrival, _, _ = _draw_ns(None, 0.0, None, [spec], [rng])
    arrival.sort()
    n = len(arrival)
    return Trace(arrival, np.full(n, int(PacketClass.ATTACK), np.uint8), np.zeros(n, np.int32))


def one_sort_fits(benign: BenignSpec | None, horizon_s: float, floods: Sequence[FloodSpec]) -> bool:
    """Whether gen_trace may build this trace, decided before anything is
    drawn: every arrival is sure to lie below 2**(63 - shift) ns, shift the
    bits of the largest source id. Arrivals end before the last flood's end
    and the end of the period that holds the horizon; the margin covers the
    float rounding of the draws, a few parts in 2**53."""
    ends = [f.end_s for f in floods]
    shift = 0
    if benign is not None:
        ends.append(horizon_s + benign.period_s)
        shift = benign.num_sources.bit_length()
    return max(ends, default=0.0) * NS_PER_S * (1 + 2**-40) + 1 < 2.0 ** (63 - shift)


def gen_trace(benign: BenignSpec | None, horizon_s: float, benign_rng: RngStream | None,
              floods: Sequence[FloodSpec], flood_rngs: Sequence[RngStream]) -> Trace:
    """merge of gen_benign and one gen_flood per flood, by one sort of the
    buffer _draw_ns fills (the trace must pass one_sort_fits). Rounding to ns
    is monotone, so converting before the sort gives those generators'
    arrivals; the class follows the source, so equal keys are equal rows."""
    ns, grid, _ = _draw_ns(benign, horizon_s, benign_rng, floods, flood_rngs)
    arrival, source = _sort_packed(ns, grid, len(grid).bit_length())
    # floods are source 0, and bool True is PacketClass.ATTACK's 1
    return Trace(arrival, np.equal(source, 0).view(np.uint8), source)


def _draw_ns(benign: BenignSpec | None, horizon_s: float, benign_rng: RngStream | None,
             floods: Sequence[FloodSpec], flood_rngs: Sequence[RngStream]) -> tuple[np.ndarray, np.ndarray, int]:
    """One buffer of ns arrivals: the background's (source, period) grid at
    its head, from one draw, then each flood's in draw order (its Poisson
    count, then one uniform per packet). It is converted in place with
    to_ns's range check and rounding, a block at a time, since a cast onto
    its own buffer copies what it reads. Returns the buffer, the grid's view
    of it and the latest arrival (0 when there is none)."""
    sources = n_per = 0
    if benign is not None:
        if horizon_s < 0:
            raise ValueError("horizon must be >= 0")
        sources, n_per = benign.num_sources, math.ceil(horizon_s / benign.period_s)
    counts = [int(r.generator.poisson(f.rate_pps * f.duration_s)) for f, r in zip(floods, flood_rngs)]
    seconds = np.empty(sources * n_per + sum(counts))
    grid = seconds[: sources * n_per].reshape(sources, n_per)
    if benign is not None:
        benign_rng.generator.random(out=grid)
        grid *= benign.jitter_fraction * benign.period_s
        grid += np.arange(n_per, dtype=np.float64) * benign.period_s
    lo = grid.size
    for flood, flood_rng, n in zip(floods, flood_rngs, counts):
        offsets = seconds[lo : lo + n]
        flood_rng.generator.random(out=offsets)
        offsets *= flood.duration_s
        offsets += flood.start_s
        lo += n
    last = to_ns(seconds.max(initial=0.0))
    ns = seconds.view(np.int64)
    for lo in range(0, len(ns), BLOCK):
        block = seconds[lo : lo + BLOCK]
        block *= NS_PER_S
        np.rint(block, out=ns[lo : lo + BLOCK], casting="unsafe")
    return ns, grid.view(np.int64), last


def _sort_packed(ns: np.ndarray, grid: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrival order of a buffer of ns arrivals, all below 2**(63 - shift), by
    one in-place sort of (arrival << shift | source) keys: grid is its head's
    (source, period) view, sources 1..len(grid), and the rest are floods,
    source 0. Two keys tie only when arrival and source do, and then the
    rows are equal, so any sort gives the stable one's output. Returns the
    buffer as the arrivals, beside new int32 source ids."""
    ns <<= shift
    grid |= np.arange(1, len(grid) + 1)[:, None]
    ns.sort()
    source = np.empty(len(ns), np.int32)
    np.bitwise_and(ns, (1 << shift) - 1, out=source, casting="unsafe")  # cast chunk by chunk
    ns >>= shift
    return ns, source


def _sort_stable(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrival order of a (source, period) grid of ns arrivals too late to pack
    a source beside: the stable sort of the source-major rows puts equal
    arrivals lower source first."""
    num_sources, n_per = grid.shape
    arrival = grid.ravel()
    order = np.argsort(arrival, kind="stable")
    source = np.repeat(np.arange(1, num_sources + 1, dtype=np.int32), n_per)[order]
    return arrival[order], source


def merge(traces: Sequence[Trace]) -> Trace:
    """Merge already-sorted traces into one stream with dense seq numbers.

    Ties break by (source_id, position within the input trace), so the merge
    is fully deterministic. Unsorted input is a precondition error.
    """
    for t in traces:
        if not is_sorted(t.arrival_ns):
            raise ValueError("merge inputs must be sorted by arrival time")
    if not traces:
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
    if len(trace) and trace.klass.max() > PacketClass.ATTACK:
        raise ValueError(f"unknown packet class {int(trace.klass.max())}")
    write_columns(
        path,
        _TRACE_HEADER,
        [range(len(trace)), Seconds(trace.arrival_ns), (_LETTER_B - trace.klass).view("S1"), trace.source_id],
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
