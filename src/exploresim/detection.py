"""Statistical model of the onboard object detector.

The detector is modeled, never executed: it fires at a fixed frame rate
and each in-view, not-yet-found object survives an independent Bernoulli
trial per frame with probability ``p_detect``.  An object latches on its
first success; false positives are not modeled.  The three stock models
carry the measured throughput of the deployed networks and use each
network's quantized accuracy score as its per-frame success probability
(a declared modeling convention, overridable per run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SimError


@dataclass(frozen=True)
class DetectorModel:
    name: str
    fps: float                 # inference throughput, frames per second
    p_detect: float            # per in-view frame success probability
    params_m: float = 0.0      # model size, millions of parameters (metadata)
    mmacs: float = 0.0         # per-inference work, millions of MACs (metadata)

    def __post_init__(self):
        if not (self.fps > 0.0 and math.isfinite(self.fps)):
            raise ValueError("fps must be a positive finite number")
        if not 0.0 <= self.p_detect <= 1.0:
            raise ValueError("p_detect must be within [0, 1]")


DETECTORS = {
    "ssd-1.0": DetectorModel("ssd-1.0", fps=1.6, p_detect=0.50, params_m=4.7, mmacs=534.0),
    "ssd-0.75": DetectorModel("ssd-0.75", fps=2.3, p_detect=0.48, params_m=2.7, mmacs=358.0),
    "ssd-0.5": DetectorModel("ssd-0.5", fps=4.3, p_detect=0.32, params_m=1.2, mmacs=193.0),
}


@dataclass
class DetectionLedger:
    """Per-run record of first detections and frame counters."""

    first_seen: dict[int, float] = field(default_factory=dict)
    frames_fired: int = 0
    frames_with_target: int = 0


def attempt_detection(model: DetectorModel, visible: list[int],
                      ledger: DetectionLedger, t: float, rng) -> DetectionLedger:
    """Run one inference frame over the currently visible object ids.

    Each visible object not yet in the ledger gets an independent
    Bernoulli(p_detect) draw; on success its first-seen time is recorded
    as t.  Draws happen in the order of ``visible``.
    """
    ledger.frames_fired += 1
    if visible:
        ledger.frames_with_target += 1
        for oid in visible:
            if oid not in ledger.first_seen and rng.random() < model.p_detect:
                ledger.first_seen[oid] = t
    return ledger


def detection_rate(ledger: DetectionLedger, total_objects: int) -> float:
    """Fraction of placed objects detected at least once."""
    if total_objects <= 0:
        raise SimError("detection rate undefined: no objects in the arena")
    return len(ledger.first_seen) / total_objects
