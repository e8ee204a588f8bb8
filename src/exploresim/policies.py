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
Every tick of an in-place turn hands out one of the two set-points that
its ``PolicyConfig`` holds (``turns``).

A policy is one ``_POLICIES`` entry: its fresh state, its step, whether
the step draws from its random stream, and the ranging beams its step
reads besides ``front`` on every refresh, given its config;
``POLICY_KINDS``, ``initial_state``, ``policy_step``, ``policy_draws``
and ``policy_beams`` read that table.  A flight's refresh casts only
those beams (see :class:`~exploresim.sensing.TofBank`): none for
pseudo-random and rotate-and-measure, the followed side for wall-following
and spiral, whose step reads the far side only to pick a corner turn's
way, and the frame casts it then.
Every step takes ``(ps, tof, heading, dt, cfg, rng)``; only
pseudo-random draws from ``rng``.

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
from operator import attrgetter

from .kinds import POSITIVE, SCAN_STEP, SPEED, TURN_RATE, Fieldwise, Model, choice
from .sensing import TofFrame
from .vehicle import DEFAULT_DRONE_RADIUS, Setpoint, normalize_heading

_EPS = 1e-12
_WALL_LOST_MARGIN = 0.5  # side error beyond this means the wall is lost, m


class PolicyConfig(Model):
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

    KINDS = {**dict.fromkeys(
        ("trigger_dist", "wall_standoff", "spiral_step", "leg_max", "k_wall", "kd_wall",
         "k_heading", "corner_margin", "align_tol"), POSITIVE),
        "cruise_speed": SPEED, "turn_rate": TURN_RATE, "scan_step": SCAN_STEP,
        "follow_side": choice(("left", "right"))}

    def __post_init__(self):
        # values read on most ticks, made once per config: plain attributes
        # outside FIELDS, so out of eq, hash and repr, and set here rather
        # than cached on first read, which would give the instance a dict
        # and slow every later read of a field.  ``cruise``: straight flight
        # at the cruise speed; ``turns``: the in-place turns, counter-clockwise
        # then clockwise (``turns[x < 0.0]`` turns toward the sign of a
        # nonzero x); ``scan_records``: front ranges per rotate-and-measure scan
        object.__setattr__(self, "cruise", Setpoint(self.cruise_speed, 0.0))
        object.__setattr__(self, "turns", (Setpoint(0.0, self.turn_rate),
                                           Setpoint(0.0, -self.turn_rate)))
        object.__setattr__(self, "scan_records", max(1, round(2.0 * math.pi / self.scan_step)))


class PseudoRandomState(Fieldwise):
    __slots__ = ("mode", "target_heading")

    def __init__(self, mode: str = "cruise", target_heading: float = 0.0):
        self.mode = mode  # cruise | turning
        self.target_heading = target_heading


class WallFollowState(Fieldwise):
    __slots__ = ("mode", "acquired", "target_heading", "prev_frame", "deriv", "held_sp")

    def __init__(self, mode: str = "acquire", acquired: bool = False,
                 target_heading: float = 0.0, prev_frame: TofFrame | None = None,
                 deriv: float = 0.0, held_sp: Setpoint | None = None):
        self.mode = mode  # acquire | corner | follow
        self.acquired = acquired
        self.target_heading = target_heading
        self.prev_frame = prev_frame  # frame of the last side reading
        self.deriv = deriv
        # the set-point tracked on prev_frame: until the next refresh the
        # step returns it; None outside follow mode
        self.held_sp = held_sp


class SpiralState(WallFollowState):
    __slots__ = ("ring_offset", "direction", "corners_done", "ring_limit")

    def __init__(self, mode: str = "acquire", acquired: bool = False,
                 target_heading: float = 0.0, prev_frame: TofFrame | None = None,
                 deriv: float = 0.0, held_sp: Setpoint | None = None,
                 ring_offset: float = 0.5, direction: str = "in", corners_done: int = 0,
                 ring_limit: float = 2.7):
        WallFollowState.__init__(self, mode, acquired, target_heading, prev_frame, deriv,
                                 held_sp)
        self.ring_offset = ring_offset
        self.direction = direction  # in | out
        self.corners_done = corners_done
        self.ring_limit = ring_limit


class RotateMeasureState(Fieldwise):
    __slots__ = ("mode", "scan_start", "prev_heading", "rotated", "scan_table", "leg_heading",
                 "leg_len", "leg_travelled")

    def __init__(self, mode: str = "scan", scan_start: float = 0.0, prev_heading: float = 0.0,
                 rotated: float = 0.0, scan_table: tuple = (), leg_heading: float = 0.0,
                 leg_len: float = 0.0, leg_travelled: float = 0.0):
        self.mode = mode  # scan | travel
        self.scan_start = scan_start
        self.prev_heading = prev_heading
        self.rotated = rotated
        self.scan_table = scan_table
        self.leg_heading = leg_heading
        self.leg_len = leg_len
        self.leg_travelled = leg_travelled


PolicyState = PseudoRandomState | WallFollowState | SpiralState | RotateMeasureState

# state class -> its field values in constructor order
_VALUES = {cls: attrgetter(*cls.FIELDS)
           for cls in (PseudoRandomState, WallFollowState, SpiralState, RotateMeasureState)}


def _copy(ps: PolicyState) -> PolicyState:
    """A new state equal to ``ps``, for a step to change: a step never
    changes the state it was given.  One ``attrgetter`` reads the fields
    and the positional constructor takes them."""
    cls = ps.__class__
    return cls(*_VALUES[cls](ps))


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
            return ps, cfg.turns[err < 0.0]
        ps = PseudoRandomState("cruise", ps.target_heading)
    if tof.front <= cfg.trigger_dist:
        # uniform over [pi/2, 3pi/2): turn magnitude in [90, 180] deg, either way
        delta = math.pi / 2.0 + rng.random() * math.pi
        target = normalize_heading(heading + delta)
        ps = PseudoRandomState("turning", target)
        err = normalize_heading(target - heading)
        return ps, cfg.turns[err < 0.0]
    return ps, cfg.cruise


def _boundary_track_step(ps, tof: TofFrame, heading: float, cfg: PolicyConfig, standoff: float):
    """Shared engine for wall-following and spiral.

    Returns (state, setpoint, corner_completed) where corner_completed
    reports a finished post-acquisition corner turn (spiral lap counting).

    In follow mode the set-point is a function of the frame, ``standoff``
    and the state alone, so a state that tracked the wall on this very
    frame (a zero-order hold repeats it between refreshes) holds its
    set-point: each caller returns ``held_sp`` before calling this when
    ``prev_frame`` is ``tof``, and a caller that changes ``standoff`` clears it.
    """
    side_is_left = cfg.follow_side == "left"
    if ps.mode == "corner":
        err = normalize_heading(ps.target_heading - heading)
        if abs(err) >= cfg.align_tol:
            return ps, cfg.turns[err < 0.0], False
        was_acquired = ps.acquired
        # the tracking fields are clear: acquire never sets them, and the
        # way in from follow clears them
        ps = _copy(ps)
        ps.mode = "follow"
        ps.acquired = True
        ps, sp, _ = _boundary_track_step(ps, tof, heading, cfg, standoff)
        return ps, sp, was_acquired
    if ps.mode == "acquire":
        if tof.front > standoff + cfg.corner_margin:
            return ps, cfg.cruise, False
        # turn away from the followed side so the wall lands on it
        delta = -math.pi / 2.0 if side_is_left else math.pi / 2.0
        ps = _copy(ps)
        ps.mode = "corner"
        ps.target_heading = normalize_heading(heading + delta)
        return ps, cfg.turns[delta < 0.0], False
    # follow mode
    if tof.front <= standoff + cfg.corner_margin:
        # corner: 90 deg in place toward the more open side
        if tof.left > tof.right:
            delta = math.pi / 2.0
        elif tof.right > tof.left:
            delta = -math.pi / 2.0
        else:
            delta = -math.pi / 2.0 if side_is_left else math.pi / 2.0
        ps = _copy(ps)
        ps.mode = "corner"
        ps.prev_frame = ps.held_sp = None
        ps.deriv = 0.0
        ps.target_heading = normalize_heading(heading + delta)
        return ps, cfg.turns[delta < 0.0], False
    side_reading = tof.left if side_is_left else tof.right
    if side_reading - standoff > _WALL_LOST_MARGIN:
        # wall lost (inner rings mostly): chasing a far reading at full turn
        # authority just circles in place, so cruise straight instead and
        # let the front trigger re-square the heading at the next wall
        if ps.prev_frame is not None:
            ps = _copy(ps)
            ps.prev_frame = ps.held_sp = None
            ps.deriv = 0.0
        return ps, cfg.cruise, False
    prev = ps.prev_frame
    ps = _copy(ps)
    if prev is not None and tof.t > prev.t:
        last = prev.left if side_is_left else prev.right
        ps.deriv = (side_reading - last) / (tof.t - prev.t)
    omega = cfg.k_wall * (side_reading - standoff) + cfg.kd_wall * ps.deriv
    if not side_is_left:
        omega = -omega
    sp = Setpoint(cfg.cruise_speed, _clamp(omega, cfg.turn_rate))
    ps.prev_frame = tof
    ps.held_sp = sp
    return ps, sp, False


def wall_following_step(ps: WallFollowState, tof: TofFrame, heading: float,
                        dt: float, cfg: PolicyConfig, rng) -> tuple[WallFollowState, Setpoint]:
    """Hold the configured standoff from the wall on the followed side."""
    if ps.prev_frame is tof and ps.held_sp is not None:
        return ps, ps.held_sp
    ps, sp, _ = _boundary_track_step(ps, tof, heading, cfg, cfg.wall_standoff)
    return ps, sp


def spiral_step(ps: SpiralState, tof: TofFrame, heading: float,
                dt: float, cfg: PolicyConfig, rng) -> tuple[SpiralState, Setpoint]:
    """Wall-following at a ring offset stepped per lap, in then back out.

    A lap is four completed corner turns.  On lap completion the offset
    moves one spiral_step inward or outward; when the next step would
    leave [wall_standoff, ring_limit] the direction reverses instead and
    the boundary ring is flown once more.
    """
    if ps.prev_frame is tof and ps.held_sp is not None:
        return ps, ps.held_sp
    ps, sp, corner_done = _boundary_track_step(ps, tof, heading, cfg, ps.ring_offset)
    if corner_done:
        corners = ps.corners_done + 1
        ps = _copy(ps)
        if corners < 4:
            ps.corners_done = corners
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
            ps.corners_done = 0
            ps.ring_offset = ring
            ps.direction = direction
            ps.held_sp = None  # tracked at the old offset
    return ps, sp


def rotate_measure_step(ps: RotateMeasureState, tof: TofFrame, heading: float,
                        dt: float, cfg: PolicyConfig, rng) -> tuple[RotateMeasureState, Setpoint]:
    """Spin in place recording the front range every scan_step, then fly
    toward the best direction for min(leg_max, recorded - standoff)."""
    if ps.mode == "travel":
        if tof.front > cfg.trigger_dist and ps.leg_travelled < ps.leg_len - _EPS:
            omega = _clamp(cfg.k_heading * normalize_heading(ps.leg_heading - heading),
                           cfg.turn_rate)
            ps = _copy(ps)
            ps.leg_travelled = ps.leg_travelled + cfg.cruise_speed * dt
            return ps, Setpoint(cfg.cruise_speed, omega)
        ps = _copy(ps)
        ps.mode = "scan"
        ps.scan_start = heading
        ps.prev_heading = heading
        ps.rotated = 0.0
        ps.scan_table = ()
    records = cfg.scan_records
    table = ps.scan_table
    idx = len(table)
    if idx < records:
        rotated = ps.rotated + normalize_heading(heading - ps.prev_heading)
        while idx < records and rotated >= idx * cfg.scan_step - _EPS:
            table = table + (tof.front,)
            idx += 1
        ps = _copy(ps)
        ps.prev_heading = heading
        ps.rotated = rotated
        ps.scan_table = table
        if idx < records:
            return ps, cfg.turns[0]
        # scan complete: freest direction wins, ties to the lowest index
        best = max(range(records), key=lambda k: table[k])
        ps.leg_heading = normalize_heading(ps.scan_start + cfg.scan_step * best)
        ps.leg_len = min(cfg.leg_max, max(0.0, table[best] - cfg.wall_standoff))
    # align with the chosen leg heading, still in place
    err = normalize_heading(ps.leg_heading - heading)
    if abs(err) >= cfg.align_tol:
        return ps, cfg.turns[err < 0.0]
    ps = _copy(ps)
    ps.mode = "travel"
    ps.leg_travelled = 0.0
    return ps, Setpoint(cfg.cruise_speed, _clamp(cfg.k_heading * err, cfg.turn_rate))


def _spiral_state(cfg: PolicyConfig, heading: float, arena, drone_radius: float) -> SpiralState:
    limit = min(arena.width, arena.height) / 2.0 - drone_radius
    return SpiralState(ring_offset=cfg.wall_standoff, ring_limit=limit)


def _followed_side(cfg: PolicyConfig) -> tuple[str, ...]:
    return (cfg.follow_side,)


# kind -> (fresh state of (cfg, heading, arena, drone_radius), step, whether
# the step draws from its rng, the beams of cfg the step reads on every
# refresh besides front); the order is that of --help, the default sweep
# and runs.csv
_POLICIES = {
    "pseudo-random": (lambda cfg, h, arena, r: PseudoRandomState(), pseudo_random_step,
                      True, lambda cfg: ()),
    "wall-following": (lambda cfg, h, arena, r: WallFollowState(), wall_following_step,
                       False, _followed_side),
    "spiral": (_spiral_state, spiral_step, False, _followed_side),
    "rotate-and-measure": (lambda cfg, h, arena, r: RotateMeasureState(scan_start=h,
                                                                       prev_heading=h),
                           rotate_measure_step, False, lambda cfg: ()),
}
POLICY_KINDS = tuple(_POLICIES)


def policy_draws(kind: str) -> bool:
    """Whether the ``kind`` policy draws from its random stream; a flight of
    one that does not is the same under every seed (``harness.fly`` checks)."""
    return _POLICIES[kind][2]


def policy_beams(kind: str, cfg: PolicyConfig) -> tuple[str, ...]:
    """The ranging beams the ``kind`` policy's step under ``cfg`` reads
    besides ``front`` on every refresh: the beams a refresh of its flight
    casts.  A wall tracker reads the side it follows; it reads the other
    only at a corner, and the frame casts it then."""
    return _POLICIES[kind][3](cfg)


def initial_state(kind: str, cfg: PolicyConfig, heading: float, arena,
                  drone_radius: float = DEFAULT_DRONE_RADIUS) -> PolicyState:
    """Fresh policy state for a run starting at the given heading."""
    return _POLICIES[kind][0](cfg, heading, arena, drone_radius)


def policy_step(kind: str, ps: PolicyState, tof: TofFrame, heading: float,
                dt: float, cfg: PolicyConfig, rng) -> tuple[PolicyState, Setpoint]:
    """Uniform dispatch used by the run loop; ``kind`` is a checked
    ``POLICY_KINDS`` name and ``ps`` the state its ``initial_state`` built."""
    return _POLICIES[kind][1](ps, tof, heading, dt, cfg, rng)
