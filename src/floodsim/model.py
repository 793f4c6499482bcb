"""Core types shared across the simulator.

Time is kept as integer nanoseconds everywhere inside the library so the
queueing recursions are exact and comparisons like "did the wait hit zero"
are meaningful; float seconds appear only at the I/O boundary (config files,
CSV output, reports). 9 fractional digits in a CSV is exactly nanosecond
resolution, so round-tripping through files is lossless.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

NS_PER_S = 1_000_000_000


class ConfigError(ValueError):
    """Invalid model or scenario parameters."""


class InvariantViolation(RuntimeError):
    """A declared simulation invariant was broken (bug or bad scenario)."""


MAX_TIME_S = 9.2e9  # a little under 2**63 ns, so every smaller time fits int64
CLOCK_NS = int(MAX_TIME_S * NS_PER_S)  # no instant of a run may reach it
MEMORY_BUDGET = 2 * 10**9  # bytes one run may take at its peak (README "Limits")
RUN_BYTES_PER_PACKET = 52  # a run's tracemalloc peak bound, as tier-1 holds it
MAX_ELEMENTS = MEMORY_BUDGET // RUN_BYTES_PER_PACKET  # cap on a scenario's expected packets
MAX_SAMPLES = 10**7  # cap on a queue timeline's samples, ~40 bytes each while sampled
# elements per step of every blockwise pass (peak_occupancy's comparisons, the
# server's draws in each regime and the cap on its spans, the background grid's
# ns cast, the detector's labelling, the vote prefix sum, the CSV encoder): no
# temporary spans the stream, one pass's arrays fit L2
BLOCK = 1 << 14


def is_sorted(times) -> bool:
    """True when a 1-d array never steps down. Neighbours are compared in
    place, so the test allocates one bool per element, not an int64 diff."""
    return not np.any(times[1:] < times[:-1])


def as_times(x, ndim: int = 1):
    """Nanosecond times as an int64 array of ndim dimensions, or with ndim=0 a
    Python int: integers only, since a cast would truncate a float (see to_ns),
    and unsigned ones only below 2**63, since the cast would wrap them."""
    arr = np.asarray(x)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("nanosecond times must be integers (convert seconds with to_ns)")
    if arr.size and arr.dtype.kind == "u" and arr.max() >= 2**63:
        raise ValueError("nanosecond times must fit int64 (below 2**63)")
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array of nanosecond times")
    return arr.astype(np.int64, copy=False) if ndim else int(arr)


def check_skip(skip, name: str) -> int:
    """The one rule for a skip length m, wherever it comes from: an integer, not a
    bool, 1 <= m < 2**63. Returns m as a Python int, whose cursor sums never wrap."""
    if isinstance(skip, bool) or not isinstance(skip, numbers.Integral) or not 1 <= skip < 2**63:
        raise ConfigError(f"{name} must be an integer >= 1 that fits int64, not {skip!r}")
    return int(skip)


def to_ns(seconds):
    """Convert seconds (scalar or array-like) to integer nanoseconds.

    Raises ValueError on a non-finite time or one of MAX_TIME_S (about 290
    years) or more in magnitude, which the int64 cast would wrap.
    """
    if isinstance(seconds, numbers.Real):  # a scalar in Python floats, no 0-d array
        x = float(seconds)
        if -MAX_TIME_S < x < MAX_TIME_S:  # else the array path below raises
            return round(x * NS_PER_S)  # ties to even, as np.rint
    arr = np.asarray(seconds, dtype=np.float64)
    # written so that nan fails the comparison too
    if arr.size and not (-MAX_TIME_S < arr.min() and arr.max() < MAX_TIME_S):
        if not np.all(np.isfinite(arr)):
            raise ValueError("time values must be finite")
        raise ValueError(f"time values must be below {MAX_TIME_S:g} s in magnitude")
    ns = np.rint(arr * NS_PER_S).astype(np.int64)
    if arr.ndim == 0:
        return int(ns)
    return ns


def to_seconds(ns):
    """Convert integer nanoseconds (scalar or array) back to float seconds."""
    return as_times(ns, np.ndim(ns)) / NS_PER_S


class PacketClass(IntEnum):
    BENIGN = 0
    ATTACK = 1


class Regime(IntEnum):
    """Server load regime governing the processing-time distribution."""

    NORMAL = 0
    ATTACK = 1


@dataclass
class Trace:
    """A packet stream in arrival order, stored as parallel numpy arrays.

    ``seq`` is implicit: packet k of the trace has seq k.
    """

    arrival_ns: np.ndarray   # int64, nondecreasing, >= 0
    klass: np.ndarray        # uint8 of PacketClass values
    source_id: np.ndarray    # int32

    def __post_init__(self):
        self.arrival_ns = as_times(self.arrival_ns)
        self.klass = np.asarray(self.klass, dtype=np.uint8)
        self.source_id = np.asarray(self.source_id, dtype=np.int32)
        if not (len(self.arrival_ns) == len(self.klass) == len(self.source_id)):
            raise ValueError("trace arrays must have equal length")

    @classmethod
    def empty(cls) -> "Trace":
        return cls(np.empty(0, np.int64), np.empty(0, np.uint8), np.empty(0, np.int32))

    def __len__(self) -> int:
        return len(self.arrival_ns)

    def attack_count(self) -> int:
        return int(np.count_nonzero(self.klass == PacketClass.ATTACK))

    def validate(self) -> None:
        if np.any(self.arrival_ns[:1] < 0):  # the first arrival, if any
            raise ValueError("arrival times must be >= 0")
        if not is_sorted(self.arrival_ns):
            raise ValueError("trace must be sorted by arrival time")
        bad = ~np.isin(self.klass, (int(PacketClass.BENIGN), int(PacketClass.ATTACK)))
        if np.any(bad):
            raise ValueError("unknown packet class values present")


@dataclass
class ServiceTimeModel:
    """Per-packet processing-time distribution of the protected server.

    Truncated Gaussian per regime with a hard floor at mean/100, so sampled
    times are always positive (a floor or a ceiling under 1 ns is a
    ConfigError). In the Attack regime an independent Bernoulli(outlier_prob)
    event multiplies the draw by outlier_scale, modeling rare very slow
    lookups. ``ceiling_s`` optionally clips from above *after* outlier
    scaling, i.e. it bounds the support outright; scenarios use it when a
    hard bound on processing times is part of the setup.

    Variances are plain seconds^2 here; the scenario layer accepts ms^2.
    """

    mean_normal_s: float = 2.98e-3
    var_normal_s2: float = 0.0055e-6
    mean_attack_s: float = 4.82e-3
    var_attack_s2: float = 0.51e-6
    outlier_prob: float = 1e-3
    outlier_scale: float = 1e3
    ceiling_s: float | None = None

    def __post_init__(self):
        # written so that nan fails every check, and inf each bounded one
        if not (0 < self.mean_normal_s < math.inf and 0 < self.mean_attack_s < math.inf):
            raise ConfigError("service means must be positive and finite")
        if not (0 <= self.var_normal_s2 < math.inf and 0 <= self.var_attack_s2 < math.inf):
            raise ConfigError("service variances must be nonnegative and finite")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ConfigError("outlier_prob must lie in [0, 1]")
        if not 0 < self.outlier_scale < math.inf:
            raise ConfigError("outlier_scale must be positive and finite")
        if self.ceiling_s is not None and not 0 < self.ceiling_s < math.inf:
            raise ConfigError("ceiling_s must be positive and finite when given")
        # every draw is at least a floor or the ceiling: none may round to 0 ns
        if not min(self.mean_normal_s, self.mean_attack_s) / 100.0 * NS_PER_S > 0.5:
            raise ConfigError("service.mean_*_ms give a floor (mean / 100) under 1 ns")
        if self.ceiling_s is not None and not self.ceiling_s * NS_PER_S > 0.5:
            raise ConfigError("service.ceiling_ms must be at least 1 ns")

    def draw_ns(self, regime: Regime, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Service times (int64 ns) under a regime, from pre-drawn standard
        normals z and uniforms u (one of each per packet; u picks outliers,
        and is read only in the attack regime, so it may be None outside it).
        A draw that does not fit the nanosecond clock is a ConfigError."""
        attack = regime == Regime.ATTACK
        if attack:
            mean, var = self.mean_attack_s, self.var_attack_s2
            keys = "mean_attack_ms, var_attack_ms2, outlier_scale"
        else:
            mean, var = self.mean_normal_s, self.var_normal_s2
            keys = "mean_normal_ms, var_normal_ms2"
        draws = mean + math.sqrt(var) * z
        if attack and self.outlier_prob > 0:
            with np.errstate(over="ignore"):  # inf is reported below
                draws = np.where(u < self.outlier_prob, draws * self.outlier_scale, draws)
        np.maximum(draws, mean / 100.0, out=draws)
        if self.ceiling_s is not None:
            np.minimum(draws, self.ceiling_s, out=draws)
        try:
            return to_ns(draws)
        except ValueError:
            raise ConfigError(f"service.{{{keys}}} give times beyond the clock") from None


@dataclass(eq=False)
class RngStream:
    """A deterministic random stream identified by (seed, stream_id).

    The same pair always yields the identical sample sequence (PCG64 seeded
    through SeedSequence, which is stable across platforms). A stream is
    single-owner: share the ids, not the object. Subsystems get distinct
    stream_ids; the STREAM_* registry below assigns them.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence((int(self.seed), int(self.stream_id)))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen


def substream(stream: RngStream, key: int) -> RngStream:
    """Derive a related but independent stream. Composition is arithmetic
    (id * 1009 + key), so derived ids stay reproducible."""
    return RngStream(stream.seed, stream.stream_id * 1009 + key)


# Stream-key registry. Every consumer draws from substream(base, run_key +
# key), where base is the scenario's (seed, 0) stream and run_key is 0 for a
# single run and (r + 1) * 1000 for Monte Carlo run r.
STREAM_BENIGN = 1       # benign traffic
STREAM_SERVICE = 2      # server service times
STREAM_DETECTOR = 3     # detector labels
STREAM_FLOOD_BASE = 10  # + k for the k-th flood in ascending index order
