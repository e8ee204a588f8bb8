"""Deterministic 2D simulator for ranging-driven exploration policies
with a statistically modeled onboard object detector.

See :mod:`exploresim.harness` for the run loop, :mod:`exploresim.cli`
for the command-line surface, and :mod:`exploresim.arena` for the room
geometry.
"""

__version__ = "0.1.0"
# The geometry runs in pure Python; kept for callers that record it.
BACKEND = "pure"

from .arena import Arena, TargetObject, Vec2, default_arena, load_arena
from .detection import DETECTORS, DetectionLedger, DetectorModel
from .harness import RunConfig, RunResult, SweepSpec, run_batch, run_single, run_sweep
from .metrics import EnergyModel, OccupancyGrid, mission_energy
from .policies import POLICY_KINDS, PolicyConfig
from .sensing import CameraModel, TofConfig
from .vehicle import Setpoint

__all__ = [
    "__version__",
    "Arena", "TargetObject", "Vec2", "default_arena", "load_arena",
    "DETECTORS", "DetectionLedger", "DetectorModel",
    "BACKEND",
    "RunConfig", "RunResult", "SweepSpec", "run_batch", "run_single", "run_sweep",
    "EnergyModel", "OccupancyGrid", "mission_energy",
    "POLICY_KINDS", "PolicyConfig",
    "CameraModel", "TofConfig",
    "Setpoint",
]
