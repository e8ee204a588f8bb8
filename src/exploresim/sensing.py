"""Range and camera sensing models.

Four single-beam ranging sensors (front, left, right, back) return
line-of-sight distances saturated at ``max_range``.  They refresh on
their own clock, slower than the control loop, with a zero-order hold in
between: the run owns one :class:`TofBank` holding the last frame, and
samples it only on the ticks where its ``due`` time has come.

The camera model is a forward cone used to decide which target objects
an inference frame can possibly see; it synthesizes no images.

Both sense from the vehicle's pose, given as the three floats ``x, y,
heading`` (see :mod:`exploresim.vehicle`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arena import Arena
from .kinds import FOV, NON_NEGATIVE, POSITIVE, RATE, Model
from .vehicle import normalize_heading

# beam mount angles relative to body heading: front, left, right, back
MOUNT_ANGLES = (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi)
_LEFT, _RIGHT, _BACK = MOUNT_ANGLES[1:]

_MIN_READING = 0.001
_TIME_EPS = 1e-9
_tuple_new = tuple.__new__


class TofConfig(Model):
    max_range: float = 4.0
    rate_hz: float = 20.0
    noise_sigma: float = 0.0

    KINDS = {"max_range": POSITIVE, "rate_hz": RATE, "noise_sigma": NON_NEGATIVE}


class TofFrame(NamedTuple):
    """One ranging measurement of the four beams, in meters, taken at ``t``."""

    front: float
    left: float
    right: float
    back: float
    t: float


class CameraModel(Model):
    fov: float = 1.1                # horizontal, radians
    max_detect_range: float = 2.0   # meters

    KINDS = {"fov": FOV, "max_detect_range": POSITIVE}


class TofBank:
    """Owns the zero-order-hold register for one run's ranging sensors.

    ``due`` is the time from which the next refresh is due: before it,
    :meth:`sample` returns the held frame, so a caller that keeps the last
    frame itself may call :meth:`sample` only once ``t >= due``.
    """

    def __init__(self, cfg: TofConfig):
        self.cfg = cfg
        self._period = 1.0 / cfg.rate_hz
        self._frame: TofFrame | None = None
        self.due = -math.inf

    def sample(self, arena: Arena, x: float, y: float, heading: float, rng,
               t: float) -> TofFrame:
        """Return the frame valid at time t, refreshing it from the pose
        ``x, y, heading`` when due.

        The first frame is measured at t=0; afterwards a new measurement
        happens on the first call at or after each sensor period, and
        moves ``due`` to the next one.  With ``noise_sigma`` zero the rng
        is never touched.  ``(x, y)`` must be in free space, as every pose
        a flight senses from is.
        """
        if t < self.due:
            return self._frame
        raycast = arena.raycast
        cfg = self.cfg
        max_range = cfg.max_range
        # the front beam adds its zero mount, which makes a heading of -0.0 a 0.0
        front = raycast(x, y, heading + 0.0)
        left = raycast(x, y, heading + _LEFT)
        right = raycast(x, y, heading + _RIGHT)
        back = raycast(x, y, heading + _BACK)
        readings = [front if front <= max_range else max_range,
                    left if left <= max_range else max_range,
                    right if right <= max_range else max_range,
                    back if back <= max_range else max_range]
        sigma = cfg.noise_sigma
        if sigma > 0.0:  # one draw per beam, in the order of the frame
            gauss = rng.gauss
            for i, r in enumerate(readings):
                r += gauss(0.0, sigma)
                readings[i] = _MIN_READING if r < _MIN_READING else (
                    r if r <= max_range else max_range)
        readings.append(t)
        # the tuple made directly, not through the NamedTuple's Python-level __new__
        self._frame = _tuple_new(TofFrame, readings)
        period = self._period
        self.due = (int(t / period + _TIME_EPS) + 1) * period - _TIME_EPS
        return self._frame


def objects_in_fov(arena: Arena, x: float, y: float, heading: float,
                   cam: CameraModel) -> list[int]:
    """Ids of target objects inside the camera cone, from the pose
    ``x, y, heading``, with clear line of sight.

    An object counts as visible when its center is within range, its
    bearing within half the field of view of the heading (the camera
    faces forward), and the ray toward it reaches past the object's near
    edge unobstructed.
    """
    out = []
    half_fov = cam.fov / 2.0
    for obj in arena.objects:
        dx = obj.pos.x - x
        dy = obj.pos.y - y
        dist = math.hypot(dx, dy)
        if dist > cam.max_detect_range:
            continue
        if dist <= obj.radius:
            out.append(obj.id)
            continue
        bearing = math.atan2(dy, dx)
        if abs(normalize_heading(bearing - heading)) > half_fov:
            continue
        if arena.raycast(x, y, bearing) > dist - obj.radius:
            out.append(obj.id)
    return out
