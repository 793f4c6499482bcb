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

from .model import BLOCK, ConfigError, PacketClass, RngStream


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
    The uniforms are drawn and labelled BLOCK at a time, which consumes the
    stream exactly as one draw of them all would.
    """
    k = np.asarray(klass, dtype=np.uint8)
    labels = np.empty(len(k), np.uint8)
    g = rng.generator
    for lo in range(0, len(k), BLOCK):
        is_attack = k[lo : lo + BLOCK] == int(PacketClass.ATTACK)
        u = g.random(len(is_attack))
        labels[lo : lo + BLOCK] = np.where(is_attack, u < model.tpr, u >= model.tnr)
    return labels
