"""Scenario files: a line-oriented ``section.key = value`` format.

Example::

    # background traffic
    benign.period_s = 0.01
    benign.num_sources = 2
    flood.1.start_s = 20
    flood.1.duration_s = 60
    flood.1.rate_pps = 6667
    sqf.D_ms = 3.0
    aam.m_mode = optimal
    run.seed = 7
    run.horizon_s = 120

Unknown keys, bad types and out-of-range values raise ScenarioError with the
offending line number (a configuration error, exit code 2 in the CLI);
scenarios whose horizon does not cover every flood violate a run invariant
(exit code 3). Floods are optional; N in ``flood.N.*`` may be any integer,
and floods are generated in ascending N order. The whole benign section may
be omitted for flood-only scenarios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .detector import DetectorModel
from .mitigation import optimal_skip
from .model import (
    STREAM_BENIGN,
    STREAM_FLOOD_BASE,
    MAX_ELEMENTS,
    MAX_SAMPLES,
    MAX_TIME_S,
    ConfigError,
    InvariantViolation,
    RngStream,
    ServiceTimeModel,
    Trace,
    check_skip,
    substream,
    to_ns,
)
from .traffic import BenignSpec, FloodSpec, gen_benign, gen_flood, merge


class ScenarioError(ConfigError):
    """Scenario file problem, with a line number when it comes from parsing."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _clock_ns(seconds: float) -> int | None:
    """A time on the nanosecond clock, or None when it is not finite or does
    not fit int64 nanoseconds."""
    try:
        return to_ns(seconds)
    except ValueError:
        return None


def _at_least_1ns(seconds: float) -> bool:
    """A time that fits the nanosecond clock and stays nonzero on it."""
    ns = _clock_ns(seconds)
    return ns is not None and ns >= 1


@dataclass
class Scenario:
    benign: BenignSpec | None = field(default_factory=lambda: BenignSpec(period_s=0.01))
    floods: list = field(default_factory=list)
    service: ServiceTimeModel = field(default_factory=ServiceTimeModel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    sqf_enabled: bool = True
    pacing_gap_s: float = 3.0e-3
    aam_enabled: bool = True
    skip_mode: str = "optimal"      # "optimal" | "fixed"
    fixed_skip: int = 100
    alpha: float = 1.0
    beta: float = 0.05
    tau_s: float = 3.0e-3
    seed: int = 1
    horizon_s: float = 10.0
    sample_dt_s: float = 0.1

    def expected_run_packets(self) -> float:
        """Expected packets of one run, each benign factor clamped just above
        MAX_ELEMENTS so that an oversized scenario still sums to a finite excess."""
        packets = sum(f.rate_pps * f.duration_s for f in self.floods)
        if self.benign is not None:
            per_source = math.ceil(min(self.horizon_s / self.benign.period_s, MAX_ELEMENTS + 1))
            packets += min(self.benign.num_sources, MAX_ELEMENTS + 1) * per_source
        return packets

    def validate(self) -> None:
        if not _at_least_1ns(self.pacing_gap_s):
            raise ConfigError("sqf.D_ms must be at least 1 ns and fit the nanosecond clock")
        if self.skip_mode not in ("optimal", "fixed"):
            raise ConfigError("aam.m_mode must be 'optimal' or 'fixed'")
        check_skip(self.fixed_skip, "aam.m_fixed")
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ConfigError("cost.alpha and cost.beta must be positive and finite")
        if not 0 < self.tau_s < math.inf:
            raise ConfigError("cost.tau_ms must be positive and finite")
        if self.horizon_s <= 0 or _clock_ns(self.horizon_s) is None:
            raise ConfigError("run.horizon_s must be positive and fit the nanosecond clock")
        if not _at_least_1ns(self.sample_dt_s):
            raise ConfigError("run.sample_dt_ms must be at least 1 ns and fit the nanosecond clock")
        if not 0 <= self.seed < 2**63:
            raise ConfigError("run.seed must be >= 0 and fit int64")
        packets = self.expected_run_packets()
        if packets > MAX_ELEMENTS:
            raise ConfigError(f"benign.* and flood.N.* ask for over {MAX_ELEMENTS:.0e} packets")
        # the shaper emits, and the detector decides, the k-th packet within
        # k gaps of the last arrival, and the server ends within the sum of
        # the service times after that, nominally the normal-regime mean each;
        # a flood's Poisson count exceeds lam + 10*sqrt(lam) + 10 with odds under 1e-20
        slack = sum(10 * math.sqrt(f.rate_pps * f.duration_s) + 10 for f in self.floods)
        per_packet_s = min(self.service.mean_normal_s, self.service.ceiling_s or math.inf)
        per_packet_s += self.pacing_gap_s if self.sqf_enabled else 0.0
        if self.horizon_s + (packets + slack) * per_packet_s >= MAX_TIME_S:
            raise ConfigError("sqf.D_ms and service.mean_*_ms carry the packets past the clock")
        # no backlog exceeds the run's packets, so every skip the cost model
        # picks at run time is at most this one and obeys the skip rule too
        optimal_skip(self.detector.window, self.beta / self.alpha, packets + slack)
        if self.horizon_s / self.sample_dt_s > MAX_SAMPLES:
            raise ConfigError(f"run.sample_dt_ms asks for over {MAX_SAMPLES:.0e} timeline samples")
        if self.aam_enabled and not self.sqf_enabled:
            raise ConfigError(
                "mitigation drops from the forwarder's input queue; "
                "aam.enabled requires sqf.enabled"
            )
        for fl in self.floods:
            if fl.end_s > self.horizon_s:
                raise InvariantViolation(
                    f"horizon {self.horizon_s}s does not cover flood ending at {fl.end_s}s"
                )
            if to_ns(fl.end_s) == to_ns(fl.start_s):
                raise ConfigError("flood.N.duration_s must come to at least 1 ns on the clock")


_MS = 1e-3
_MS2 = 1e-6  # ms^2 -> s^2


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _int64(raw: str) -> int:
    if not -(2**63) <= (value := int(raw)) < 2**63:
        raise ValueError(f"not a 64-bit integer: {raw!r}")
    return value


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# key -> (section of the parse state, field, converter, scale or None)
_KEYS = {
    "benign.enabled": ("benign", "enabled", _parse_bool, None),
    "benign.period_s": ("benign", "period_s", _finite, None),
    "benign.jitter_fraction": ("benign", "jitter_fraction", _finite, None),
    "benign.num_sources": ("benign", "num_sources", _int64, None),
    "service.mean_normal_ms": ("service", "mean_normal_s", _finite, _MS),
    "service.var_normal_ms2": ("service", "var_normal_s2", _finite, _MS2),
    "service.mean_attack_ms": ("service", "mean_attack_s", _finite, _MS),
    "service.var_attack_ms2": ("service", "var_attack_s2", _finite, _MS2),
    "service.outlier_prob": ("service", "outlier_prob", _finite, None),
    "service.outlier_scale": ("service", "outlier_scale", _finite, None),
    "service.ceiling_ms": ("service", "ceiling_s", _finite, _MS),
    "sqf.enabled": ("plain", "sqf_enabled", _parse_bool, None),
    "sqf.D_ms": ("plain", "pacing_gap_s", _finite, _MS),
    "detector.tpr": ("detector", "tpr", _finite, None),
    "detector.tnr": ("detector", "tnr", _finite, None),
    "detector.window": ("detector", "window", _int64, None),
    "aam.enabled": ("plain", "aam_enabled", _parse_bool, None),
    "aam.m_mode": ("plain", "skip_mode", str, None),
    "aam.m_fixed": ("plain", "fixed_skip", _int64, None),
    "cost.alpha": ("plain", "alpha", _finite, None),
    "cost.beta": ("plain", "beta", _finite, None),
    "cost.tau_ms": ("plain", "tau_s", _finite, _MS),
    "run.seed": ("plain", "seed", _int64, None),
    "run.horizon_s": ("plain", "horizon_s", _finite, None),
    "run.sample_dt_ms": ("plain", "sample_dt_s", _finite, _MS),
}
_FLOOD_FIELDS = ("start_s", "duration_s", "rate_pps")


def parse_scenario(text: str) -> Scenario:
    state = {"benign": {}, "service": {}, "detector": {}, "plain": {}}
    floods: dict[int, dict] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", line_no)
        key, _, raw_val = line.partition("=")
        key = key.strip()
        raw_val = raw_val.strip()
        if not raw_val:
            raise ScenarioError(f"empty value for {key!r}", line_no)
        if key.startswith("flood."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _FLOOD_FIELDS:
                raise ScenarioError(f"unknown key {key!r}", line_no)
            try:
                idx = int(parts[1])
                val = _finite(raw_val)
                if parts[2].endswith("_s"):
                    to_ns(val)  # must fit the nanosecond clock
            except ValueError as exc:
                raise ScenarioError(str(exc), line_no) from exc
            floods.setdefault(idx, {})[parts[2]] = val
            continue
        if key not in _KEYS:
            raise ScenarioError(f"unknown key {key!r}", line_no)
        section, name, conv, scale = _KEYS[key]
        try:
            val = conv(raw_val)
            if scale:
                val *= scale
            if name.endswith("_s"):
                to_ns(val)  # must fit the nanosecond clock
        except ValueError as exc:
            raise ScenarioError(str(exc), line_no) from exc
        state[section][name] = val

    try:
        enabled = state["benign"].pop("enabled", True)
        benign = replace(Scenario().benign, **state["benign"]) if enabled else None
        flood_specs = []
        for idx in sorted(floods):
            f = floods[idx]
            missing = set(_FLOOD_FIELDS) - set(f)
            if missing:
                raise ConfigError(f"flood.{idx} is missing {sorted(missing)}")
            flood_specs.append(FloodSpec(**f))
        scn = Scenario(
            benign=benign,
            floods=flood_specs,
            service=ServiceTimeModel(**state["service"]),
            detector=DetectorModel(**state["detector"]),
            **state["plain"],
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc
    scn.validate()
    return scn


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read the scenario file: {exc}") from exc
    return parse_scenario(text)


def build_trace(scenario: Scenario, rng: RngStream, run_key: int = 0) -> Trace:
    """Generate and merge the scenario's arrival streams, drawing from the
    run's keys of the stream-key registry in model.py."""
    parts = []
    if scenario.benign is not None:
        benign_rng = substream(rng, run_key + STREAM_BENIGN)
        parts.append(gen_benign(scenario.benign, scenario.horizon_s, benign_rng))
    for k, flood in enumerate(scenario.floods):
        flood_rng = substream(rng, run_key + STREAM_FLOOD_BASE + k)
        parts.append(gen_flood(flood, flood_rng))
    return merge(parts)


def expected_attack_packets(scenario: Scenario) -> float:
    """E[X]: expected arrivals during flood windows (attack plus benign)."""
    benign_rate = scenario.benign.rate_pps if scenario.benign is not None else 0.0
    return sum(f.rate_pps * f.duration_s + benign_rate * f.duration_s for f in scenario.floods)


def expected_attack_fraction(scenario: Scenario) -> float:
    """f: expected attack share of arrivals during flood windows."""
    total = expected_attack_packets(scenario)
    if total == 0:
        return 0.0
    attack = sum(f.rate_pps * f.duration_s for f in scenario.floods)
    return attack / total
