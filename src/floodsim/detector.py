"""Per-packet attack classification with window-majority decisions.

The classifier is modeled as a Bernoulli error channel: an attack packet is
labeled attack with probability tpr, a benign packet benign with probability
tnr, independently per packet. A window of labels raises the alarm iff the
attack labels hold a strict majority (ties stay quiet); the window machine in
mitigation.py counts the votes from prefix sums of the labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError, PacketClass, RngStream


@dataclass
class DetectorModel:
    tpr: float = 0.9973        # P(label attack | attack)
    tnr: float = 0.9848        # P(label benign | benign)
    window: int = 9            # packets per decision window

    def __post_init__(self):
        if not 0.0 <= self.tpr <= 1.0 or not 0.0 <= self.tnr <= 1.0:
            raise ConfigError("tpr and tnr must lie in [0, 1]")
        if self.window < 1:
            raise ConfigError("window must be >= 1")


def classify_stream(klass, model: DetectorModel, rng: RngStream) -> np.ndarray:
    """Noisy labels for a whole stream (uint8 array of PacketClass values).

    One uniform is consumed per packet regardless of class, so the label of
    packet k depends only on (stream, k), not on the class mix around it.
    """
    k = np.asarray(klass, dtype=np.uint8)
    u = rng.generator.random(len(k))
    is_attack = k == int(PacketClass.ATTACK)
    labeled_attack = np.where(is_attack, u < model.tpr, u >= model.tnr)
    return labeled_attack.astype(np.uint8)

