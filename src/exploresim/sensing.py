"""Range and camera sensing models.

Four single-beam ranging sensors (front, left, right, back) return
line-of-sight distances saturated at ``max_range``.  They refresh on
their own clock, slower than the control loop, with a zero-order hold in
between: the run owns one :class:`TofBank` holding the last frame.

The camera model is a forward cone used to decide which target objects
an inference frame can possibly see; it synthesizes no images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arena import Arena
from .vehicle import VehicleState, normalize_heading

# beam mount angles relative to body heading: front, left, right, back
MOUNT_ANGLES = (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi)

_MIN_READING = 0.001
_TIME_EPS = 1e-9


@dataclass(frozen=True)
class TofConfig:
    max_range: float = 4.0
    rate_hz: float = 20.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        for name in ("max_range", "rate_hz"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be a positive finite number")
        if not (self.noise_sigma >= 0.0 and math.isfinite(self.noise_sigma)):
            raise ValueError("noise_sigma must be a finite number >= 0")


@dataclass(frozen=True)
class TofFrame:
    front: float
    left: float
    right: float
    back: float
    t: float


@dataclass(frozen=True)
class CameraModel:
    fov: float = 1.1                # horizontal, radians
    max_detect_range: float = 2.0   # meters
    mount_angle: float = 0.0        # forward

    def __post_init__(self):
        if not (0.0 < self.fov < math.pi):
            raise ValueError("fov must be in (0, pi)")
        if not (self.max_detect_range > 0.0 and math.isfinite(self.max_detect_range)):
            raise ValueError("max_detect_range must be a positive finite number")


class TofBank:
    """Owns the zero-order-hold register for one run's ranging sensors."""

    def __init__(self, cfg: TofConfig):
        self.cfg = cfg
        self._frame: TofFrame | None = None
        self._fires = 0

    def sample(self, arena: Arena, state: VehicleState, rng, t: float) -> TofFrame:
        """Return the frame valid at time t, refreshing it when due.

        The first frame is measured at t=0; afterwards a new measurement
        happens on the first call at or after each sensor period.  With
        ``noise_sigma`` zero the rng is never touched.
        """
        period = 1.0 / self.cfg.rate_hz
        if self._frame is None or t >= self._fires * period - _TIME_EPS:
            readings = []
            sigma = self.cfg.noise_sigma
            max_range = self.cfg.max_range
            for mount in MOUNT_ANGLES:
                r = arena.raycast(state.x, state.y, state.heading + mount)
                if r > max_range:
                    r = max_range
                if sigma > 0.0:
                    r += rng.gauss(0.0, sigma)
                    if r < _MIN_READING:
                        r = _MIN_READING
                    elif r > max_range:
                        r = max_range
                readings.append(r)
            self._frame = TofFrame(readings[0], readings[1], readings[2], readings[3], t)
            self._fires = int(t / period + _TIME_EPS) + 1
        return self._frame


def objects_in_fov(arena: Arena, state: VehicleState, cam: CameraModel) -> list[int]:
    """Ids of target objects inside the camera cone with clear line of sight.

    An object counts as visible when its center is within range, its
    bearing within half the field of view of the camera axis, and the
    ray toward it reaches past the object's near edge unobstructed.
    """
    out = []
    half_fov = cam.fov / 2.0
    axis = state.heading + cam.mount_angle
    for obj in arena.objects:
        dx = obj.pos.x - state.x
        dy = obj.pos.y - state.y
        dist = math.hypot(dx, dy)
        if dist > cam.max_detect_range:
            continue
        if dist <= obj.radius:
            out.append(obj.id)
            continue
        bearing = math.atan2(dy, dx)
        if abs(normalize_heading(bearing - axis)) > half_fov:
            continue
        if arena.raycast(state.x, state.y, bearing) > dist - obj.radius:
            out.append(obj.id)
    return out
