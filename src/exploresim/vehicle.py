"""Planar drone kinematics: set-point integration and the collision record.

Set-points (forward speed, yaw rate) apply instantaneously; there are no
attitude dynamics.  Integration uses the midpoint-heading rule, which is
second-order accurate on arcs and keeps each step's displacement length
exactly ``|v| * dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
DEFAULT_DRONE_RADIUS = 0.05  # 10 cm diameter airframe
DEFAULT_V_MAX = 1.0
DEFAULT_OMEGA_MAX = 2.0


def normalize_heading(h: float) -> float:
    """Wrap a heading into [-pi, pi)."""
    return (h + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class Setpoint:
    """Commanded forward speed (m/s) and yaw rate (rad/s)."""

    v: float
    omega: float


@dataclass
class VehicleState:
    x: float
    y: float
    heading: float
    v: float = 0.0
    omega: float = 0.0
    t: float = 0.0


@dataclass
class CollisionRecord:
    occurred: bool = False
    time: float = 0.0
    x: float = 0.0
    y: float = 0.0


def step(state: VehicleState, sp: Setpoint, dt: float) -> VehicleState:
    """Advance one control tick under a set-point (midpoint-heading rule)."""
    mid = state.heading + sp.omega * dt * 0.5
    return VehicleState(
        state.x + sp.v * dt * math.cos(mid),
        state.y + sp.v * dt * math.sin(mid),
        normalize_heading(state.heading + sp.omega * dt),
        sp.v,
        sp.omega,
        state.t + dt,
    )

