"""The four exploration policies as explicit finite state machines.

Each policy maps the latest ranging frame (plus the current heading) to
a forward-speed / yaw-rate set-point:

* ``pseudo-random``: cruise straight; when something appears within the
  trigger distance, turn in place by a random angle of at least 90 deg.
* ``wall-following``: track the nearest wall at a fixed lateral standoff
  with the side sensor, turning 90 deg in place at corners.
* ``spiral``: wall-following whose standoff grows by one step per lap
  until the room center region is reached, then shrinks back, repeating.
* ``rotate-and-measure``: spin in place sampling the front distance
  every 45 deg, then fly a straight leg along the freest direction.

Step functions are pure: they never mutate their input state and return
a (state, set-point) pair.  All rotation happens in place (v = 0) and
every emitted set-point respects ``cruise_speed`` and ``turn_rate``.

The wall tracker is PD rather than plain P: the derivative of the side
reading damps the lateral oscillation that a pure proportional law on a
heading-rate actuator cannot (the closed loop is a harmonic oscillator
otherwise).  ``kd_wall`` defaults to critical damping at 0.5 m/s.

Wall-following and spiral start in an ``acquire`` mode that cruises
straight until a wall is within corner range, then turns to put it on
the followed side; without it, a start in open space makes the tracker
circle in place forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .sensing import TofFrame
from .vehicle import DEFAULT_DRONE_RADIUS, Setpoint, normalize_heading

POLICY_KINDS = ("pseudo-random", "wall-following", "spiral", "rotate-and-measure")

_EPS = 1e-12


@dataclass(frozen=True)
class PolicyConfig:
    cruise_speed: float = 0.5    # mission mean flight speed, m/s
    trigger_dist: float = 1.0    # front distance that triggers avoidance, m
    wall_standoff: float = 0.5   # lateral wall distance to hold, m
    spiral_step: float = 0.5     # per-lap standoff increment, m
    scan_step: float = math.pi / 4.0  # angular spacing of scan records
    leg_max: float = 2.0         # longest straight leg after a scan, m
    turn_rate: float = 1.5       # in-place rotation rate, rad/s
    k_wall: float = 1.5          # wall tracking P gain, rad/s per m
    kd_wall: float = 3.5         # wall tracking D gain, rad per m
    k_heading: float = 2.0       # heading hold gain on travel legs, 1/s
    follow_side: str = "left"    # which side sensor tracks the wall
    corner_margin: float = 0.1   # corner trigger is standoff + margin, m
    align_tol: float = 0.05      # in-place turns finish within this, rad
    wall_lost_margin: float = 0.5  # side error beyond this means wall lost, m

    def __post_init__(self):
        for name in ("cruise_speed", "trigger_dist", "wall_standoff", "spiral_step",
                     "scan_step", "leg_max", "turn_rate", "k_wall", "kd_wall",
                     "k_heading", "corner_margin", "align_tol", "wall_lost_margin"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"policy config field {name} must be a positive finite number")
        if self.follow_side not in ("left", "right"):
            raise ValueError("follow_side must be 'left' or 'right'")


@dataclass
class PseudoRandomState:
    mode: str = "cruise"  # cruise | turning
    target_heading: float = 0.0


@dataclass
class WallFollowState:
    mode: str = "acquire"  # acquire | corner | follow
    side: str = "left"
    acquired: bool = False
    target_heading: float = 0.0
    prev_reading: float | None = None  # side reading at the last fresh frame
    prev_t: float = 0.0
    deriv: float = 0.0


@dataclass
class SpiralState(WallFollowState):
    ring_offset: float = 0.5
    direction: str = "in"  # in | out
    corners_done: int = 0
    ring_limit: float = 2.7


@dataclass
class RotateMeasureState:
    mode: str = "scan"  # scan | travel
    scan_start: float = 0.0
    prev_heading: float = 0.0
    rotated: float = 0.0
    scan_index: int = 0
    scan_table: tuple = field(default_factory=tuple)
    leg_heading: float = 0.0
    leg_len: float = 0.0
    leg_travelled: float = 0.0


PolicyState = PseudoRandomState | WallFollowState | SpiralState | RotateMeasureState


def _clamp(value: float, limit: float) -> float:
    if value > limit:
        return limit
    if value < -limit:
        return -limit
    return value


def pseudo_random_step(ps: PseudoRandomState, tof: TofFrame, heading: float,
                       dt: float, cfg: PolicyConfig, rng) -> tuple[PseudoRandomState, Setpoint]:
    """Cruise straight; turn in place by a random angle >= 90 deg on trigger."""
    if ps.mode == "turning":
        err = normalize_heading(ps.target_heading - heading)
        if abs(err) >= cfg.align_tol:
            return ps, Setpoint(0.0, math.copysign(cfg.turn_rate, err))
        ps = replace(ps, mode="cruise")
    if tof.front <= cfg.trigger_dist:
        # uniform over [pi/2, 3pi/2): turn magnitude in [90, 180] deg, either way
        delta = math.pi / 2.0 + rng.random() * math.pi
        target = normalize_heading(heading + delta)
        ps = replace(ps, mode="turning", target_heading=target)
        err = normalize_heading(target - heading)
        return ps, Setpoint(0.0, math.copysign(cfg.turn_rate, err))
    return ps, Setpoint(cfg.cruise_speed, 0.0)


def _boundary_track_step(ps, tof: TofFrame, heading: float, dt: float,
                         cfg: PolicyConfig, standoff: float):
    """Shared engine for wall-following and spiral.

    Returns (state, setpoint, corner_completed) where corner_completed
    reports a finished post-acquisition corner turn (spiral lap counting).
    """
    side_is_left = ps.side == "left"
    if ps.mode == "corner":
        err = normalize_heading(ps.target_heading - heading)
        if abs(err) >= cfg.align_tol:
            return ps, Setpoint(0.0, math.copysign(cfg.turn_rate, err)), False
        was_acquired = ps.acquired
        ps = replace(ps, mode="follow", acquired=True, prev_reading=None, deriv=0.0)
        ps, sp, _ = _boundary_track_step(ps, tof, heading, dt, cfg, standoff)
        return ps, sp, was_acquired
    if ps.mode == "acquire":
        if tof.front > standoff + cfg.corner_margin:
            return ps, Setpoint(cfg.cruise_speed, 0.0), False
        # turn away from the followed side so the wall lands on it
        delta = -math.pi / 2.0 if side_is_left else math.pi / 2.0
        ps = replace(ps, mode="corner", target_heading=normalize_heading(heading + delta))
        return ps, Setpoint(0.0, math.copysign(cfg.turn_rate, delta)), False
    # follow mode
    if tof.front <= standoff + cfg.corner_margin:
        # corner: 90 deg in place toward the more open side
        if tof.left > tof.right:
            delta = math.pi / 2.0
        elif tof.right > tof.left:
            delta = -math.pi / 2.0
        else:
            delta = -math.pi / 2.0 if side_is_left else math.pi / 2.0
        ps = replace(ps, mode="corner", prev_reading=None, deriv=0.0,
                     target_heading=normalize_heading(heading + delta))
        return ps, Setpoint(0.0, math.copysign(cfg.turn_rate, delta)), False
    side_reading = tof.left if side_is_left else tof.right
    if side_reading - standoff > cfg.wall_lost_margin:
        # wall lost (inner rings mostly): chasing a far reading at full turn
        # authority just circles in place, so cruise straight instead and
        # let the front trigger re-square the heading at the next wall
        if ps.prev_reading is not None:
            ps = replace(ps, prev_reading=None, deriv=0.0)
        return ps, Setpoint(cfg.cruise_speed, 0.0), False
    if ps.prev_reading is None:
        ps = replace(ps, prev_reading=side_reading, prev_t=tof.t)
    elif tof.t > ps.prev_t:
        deriv = (side_reading - ps.prev_reading) / (tof.t - ps.prev_t)
        ps = replace(ps, prev_reading=side_reading, prev_t=tof.t, deriv=deriv)
    omega = cfg.k_wall * (side_reading - standoff) + cfg.kd_wall * ps.deriv
    if not side_is_left:
        omega = -omega
    return ps, Setpoint(cfg.cruise_speed, _clamp(omega, cfg.turn_rate)), False


def wall_following_step(ps: WallFollowState, tof: TofFrame, heading: float,
                        dt: float, cfg: PolicyConfig) -> tuple[WallFollowState, Setpoint]:
    """Hold the configured standoff from the wall on the followed side."""
    ps, sp, _ = _boundary_track_step(ps, tof, heading, dt, cfg, cfg.wall_standoff)
    return ps, sp


def spiral_step(ps: SpiralState, tof: TofFrame, heading: float,
                dt: float, cfg: PolicyConfig) -> tuple[SpiralState, Setpoint]:
    """Wall-following at a ring offset stepped per lap, in then back out.

    A lap is four completed corner turns.  On lap completion the offset
    moves one spiral_step inward or outward; when the next step would
    leave [wall_standoff, ring_limit] the direction reverses instead and
    the boundary ring is flown once more.
    """
    ps, sp, corner_done = _boundary_track_step(ps, tof, heading, dt, cfg, ps.ring_offset)
    if corner_done:
        corners = ps.corners_done + 1
        if corners < 4:
            ps = replace(ps, corners_done=corners)
        else:
            ring = ps.ring_offset
            direction = ps.direction
            if direction == "in":
                cand = ring + cfg.spiral_step
                if cand > ps.ring_limit:
                    direction = "out"
                else:
                    ring = cand
            else:
                cand = ring - cfg.spiral_step
                if cand < cfg.wall_standoff - _EPS:
                    direction = "in"
                else:
                    ring = cand
            ps = replace(ps, corners_done=0, ring_offset=ring, direction=direction)
    return ps, sp


def rotate_measure_step(ps: RotateMeasureState, tof: TofFrame, heading: float,
                        dt: float, cfg: PolicyConfig) -> tuple[RotateMeasureState, Setpoint]:
    """Spin in place recording the front range every scan_step, then fly
    toward the best direction for min(leg_max, recorded - standoff)."""
    if ps.mode == "travel":
        if tof.front > cfg.trigger_dist and ps.leg_travelled < ps.leg_len - _EPS:
            omega = _clamp(cfg.k_heading * normalize_heading(ps.leg_heading - heading),
                           cfg.turn_rate)
            ps = replace(ps, leg_travelled=ps.leg_travelled + cfg.cruise_speed * dt)
            return ps, Setpoint(cfg.cruise_speed, omega)
        ps = replace(ps, mode="scan", scan_start=heading, prev_heading=heading,
                     rotated=0.0, scan_index=0, scan_table=())
    records = max(1, round(2.0 * math.pi / cfg.scan_step))
    if ps.scan_index < records:
        rotated = ps.rotated + normalize_heading(heading - ps.prev_heading)
        idx = ps.scan_index
        table = ps.scan_table
        while idx < records and rotated >= idx * cfg.scan_step - _EPS:
            table = table + (tof.front,)
            idx += 1
        if idx < records:
            return (replace(ps, prev_heading=heading, rotated=rotated,
                            scan_index=idx, scan_table=table),
                    Setpoint(0.0, cfg.turn_rate))
        # scan complete: freest direction wins, ties to the lowest index
        best = max(range(records), key=lambda k: table[k])
        leg_heading = normalize_heading(ps.scan_start + cfg.scan_step * best)
        leg_len = min(cfg.leg_max, max(0.0, table[best] - cfg.wall_standoff))
        ps = replace(ps, prev_heading=heading, rotated=rotated, scan_index=idx,
                     scan_table=table, leg_heading=leg_heading, leg_len=leg_len)
    # align with the chosen leg heading, still in place
    err = normalize_heading(ps.leg_heading - heading)
    if abs(err) >= cfg.align_tol:
        return ps, Setpoint(0.0, math.copysign(cfg.turn_rate, err))
    ps = replace(ps, mode="travel", leg_travelled=0.0)
    return ps, Setpoint(cfg.cruise_speed, _clamp(cfg.k_heading * err, cfg.turn_rate))


_STATE_TYPES = {
    "pseudo-random": PseudoRandomState,
    "wall-following": WallFollowState,
    "spiral": SpiralState,
    "rotate-and-measure": RotateMeasureState,
}


def initial_state(kind: str, cfg: PolicyConfig, heading: float = 0.0,
                  arena=None, drone_radius: float = DEFAULT_DRONE_RADIUS) -> PolicyState:
    """Fresh policy state for a run starting at the given heading."""
    if kind == "pseudo-random":
        return PseudoRandomState()
    if kind == "wall-following":
        return WallFollowState(side=cfg.follow_side)
    if kind == "spiral":
        if arena is None:
            raise ValueError("spiral needs the arena to bound its ring offset")
        limit = min(arena.width, arena.height) / 2.0 - drone_radius
        return SpiralState(side=cfg.follow_side, ring_offset=cfg.wall_standoff,
                           ring_limit=limit)
    if kind == "rotate-and-measure":
        return RotateMeasureState(scan_start=heading, prev_heading=heading)
    raise ValueError(f"unknown policy {kind!r}; expected one of {', '.join(POLICY_KINDS)}")


def policy_step(kind: str, ps: PolicyState, tof: TofFrame, heading: float,
                dt: float, cfg: PolicyConfig, rng) -> tuple[PolicyState, Setpoint]:
    """Uniform dispatch used by the run loop."""
    expected = _STATE_TYPES.get(kind)
    if expected is None:
        raise ValueError(f"unknown policy {kind!r}; expected one of {', '.join(POLICY_KINDS)}")
    if type(ps) is not expected:
        raise TypeError(f"policy {kind!r} got state of type {type(ps).__name__}")
    if kind == "pseudo-random":
        return pseudo_random_step(ps, tof, heading, dt, cfg, rng)
    if kind == "wall-following":
        return wall_following_step(ps, tof, heading, dt, cfg)
    if kind == "spiral":
        return spiral_step(ps, tof, heading, dt, cfg)
    return rotate_measure_step(ps, tof, heading, dt, cfg)
