"""Planar drone kinematics: set-point integration and the collision record.

The vehicle's pose is three floats, ``x``, ``y`` (meters) and ``heading``
(radians, in [-pi, pi)), held in no class: :func:`step` takes them and
returns the tuple ``(x, y, heading)``.

Set-points (forward speed, yaw rate) apply instantaneously; there are no
attitude dynamics.  Integration uses the midpoint-heading rule, which is
second-order accurate on arcs and keeps each step's displacement length
exactly ``|v| * dt``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import cos, pi, sin

TWO_PI = 2.0 * math.pi
DEFAULT_DRONE_RADIUS = 0.05  # 10 cm diameter airframe


def normalize_heading(h: float) -> float:
    """Wrap a heading into [-pi, pi)."""
    return (h + math.pi) % TWO_PI - math.pi


Setpoint = namedtuple("Setpoint", "v omega")
Setpoint.__doc__ = """Commanded forward speed (m/s) and yaw rate (rad/s); an immutable
pair, so a policy may hand out the same set-point on every tick."""

CollisionRecord = namedtuple("CollisionRecord", "occurred time x y",
                             defaults=(False, 0.0, 0.0, 0.0))
CollisionRecord.__doc__ = """Whether a flight collided, and when (s) and where (m); the
default record is of no collision."""


def step(x: float, y: float, heading: float, sp: Setpoint,
         dt: float) -> tuple[float, float, float]:
    """The pose ``(x, y, heading)`` one control tick after the pose
    ``x, y, heading`` under a set-point (midpoint-heading rule).  A turn in
    place (``v == 0``) keeps the position without any trig: a flight's
    positions are never zero, so adding ``0.0 * cos`` changes none.  The
    new heading is :func:`normalize_heading`'s expression, inline.

    A step from the origin returns the tick's displacement, the products
    ``v * dt * cos(mid)`` and ``v * dt * sin(mid)`` themselves; adding it
    to a position is the one rounded addition a step from there makes, and
    a zero of either sign keeps a nonzero coordinate.  So
    :func:`harness.fly` reuses a held set-point's displacement at an equal
    heading, and an in-place turn adds none."""
    v, omega = sp
    if not v:
        return x, y, (heading + omega * dt + pi) % TWO_PI - pi
    mid = heading + omega * dt * 0.5
    return (
        x + v * dt * cos(mid),
        y + v * dt * sin(mid),
        (heading + omega * dt + pi) % TWO_PI - pi,
    )

