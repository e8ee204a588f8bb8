"""Planar drone kinematics: set-point integration and the collision record.

Set-points (forward speed, yaw rate) apply instantaneously; there are no
attitude dynamics.  Integration uses the midpoint-heading rule, which is
second-order accurate on arcs and keeps each step's displacement length
exactly ``|v| * dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

TWO_PI = 2.0 * math.pi
DEFAULT_DRONE_RADIUS = 0.05  # 10 cm diameter airframe


def normalize_heading(h: float) -> float:
    """Wrap a heading into [-pi, pi)."""
    return (h + math.pi) % TWO_PI - math.pi


class Setpoint(NamedTuple):
    """Commanded forward speed (m/s) and yaw rate (rad/s); an immutable
    pair, so a policy may hand out the same set-point on every tick."""

    v: float
    omega: float


@dataclass(slots=True)
class VehicleState:
    x: float
    y: float
    heading: float


@dataclass
class CollisionRecord:
    occurred: bool = False
    time: float = 0.0
    x: float = 0.0
    y: float = 0.0


def step(state: VehicleState, sp: Setpoint, dt: float) -> VehicleState:
    """Advance one control tick under a set-point (midpoint-heading rule).
    A turn in place (``v == 0``) keeps the position without any trig: a
    flight's positions are never zero, so adding ``0.0 * cos`` changes none."""
    v, omega = sp
    if not v:
        return VehicleState(state.x, state.y, normalize_heading(state.heading + omega * dt))
    mid = state.heading + omega * dt * 0.5
    return VehicleState(
        state.x + v * dt * math.cos(mid),
        state.y + v * dt * math.sin(mid),
        normalize_heading(state.heading + omega * dt),
    )

