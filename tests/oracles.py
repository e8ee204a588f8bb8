"""Independent oracles the tests check the simulator against.

These deliberately avoid the library's analytic code paths: the ray
oracle advances in 1 mm steps with numpy point tests, the motion oracle
re-integrates set-points at a much finer step, the per-tick flight
oracle steps the vehicle from its pose on every tick and senses a beam
at a time, the replay oracle
passes a trajectory log through the row parser a line at a time, the
flight-grid oracle marks the dwell of a flight a tick at a time, and the
detection oracle runs one mission's detector over its flight's states
after the flight.
"""

from __future__ import annotations

import math
import random

import numpy as np

from exploresim import vehicle
from exploresim.detection import DetectionLedger, attempt_detection
from exploresim.errors import SimError
from exploresim.harness import fly
from exploresim.metrics import OccupancyGrid
from exploresim.policies import initial_state, policy_step
from exploresim.report import parse_trajectory
from exploresim.seeding import derive_seed
from exploresim.sensing import MOUNT_ANGLES, TofFrame, objects_in_fov


def dense_ray_distance(width, height, boxes, ox, oy, heading, step=0.001):
    """First 1 mm step strictly inside a solid (obstacle or out of room).

    Agrees with an exact ray cast to within one step.  Scans in blocks
    so typical rays stop after a couple of thousand point tests.
    """
    dx = math.cos(heading)
    dy = math.sin(heading)
    max_steps = int(math.hypot(width, height) / step) + 2
    block = 4096
    k0 = 1
    while k0 <= max_steps:
        ks = np.arange(k0, min(k0 + block, max_steps + 1))
        xs = ox + ks * (step * dx)
        ys = oy + ks * (step * dy)
        solid = (xs <= 0.0) | (xs >= width) | (ys <= 0.0) | (ys >= height)
        for x0, y0, x1, y1 in boxes:
            solid |= (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
        hit = np.argmax(solid)
        if solid[hit]:
            return float(ks[hit]) * step
        k0 += block
    raise AssertionError("ray escaped an enclosed room")


def sight_line_blocked(width, height, boxes, x0, y0, x1, y1, step=0.001):
    """Dense-stepping occlusion test along a segment (endpoints excluded)."""
    dist = math.hypot(x1 - x0, y1 - y0)
    heading = math.atan2(y1 - y0, x1 - x0)
    return dense_ray_distance(width, height, boxes, x0, y0, heading, step) < dist - step


def fine_integrate(x, y, heading, v, omega, total_time, substeps):
    """Midpoint-rule integration at a much finer step than the simulator."""
    dt = total_time / substeps
    for _ in range(substeps):
        mid = heading + omega * dt * 0.5
        x += v * dt * math.cos(mid)
        y += v * dt * math.sin(mid)
        heading += omega * dt
    return x, y, heading


def per_beam_frame(arena, x, y, heading, tof, rng, t):
    """The ranging frame from the pose ``x, y, heading`` at ``t``, a beam at
    a time in ``MOUNT_ANGLES`` order: each reading saturates at the range,
    then, with noise, takes its own Gaussian draw and is clamped into
    [0.001, max_range]."""
    readings = []
    for mount in MOUNT_ANGLES:
        r = min(arena.raycast(x, y, heading + mount), tof.max_range)
        if tof.noise_sigma > 0.0:
            r += rng.gauss(0.0, tof.noise_sigma)
            if r < 0.001:
                r = 0.001
            elif r > tof.max_range:
                r = tof.max_range
        readings.append(r)
    return TofFrame(*readings, t)


def frame_values(frame):
    """The readings of a ranging frame by name, front, left, right, back,
    then its time ``t``."""
    return frame.front, frame.left, frame.right, frame.back, frame.t


def per_tick_flight(cfg):
    """The ticks of ``fly(cfg)``, flown without any memo: per tick a frame
    from :func:`per_beam_frame` when the sensor period is due (else the held
    one), ``policy_step``, ``vehicle.step`` from the pose and the disc test
    at the new pose.  Yields ``(t, seen, frame, ps, sp, pose, blocked)``."""
    arena, dt, tof = cfg.arena, cfg.control_dt, cfg.tof
    policy_rng = random.Random(derive_seed(cfg.seed, "policy"))
    noise_rng = random.Random(derive_seed(cfg.seed, "noise"))
    pose = cfg.start_pose()
    ps = initial_state(cfg.policy, cfg.policy_cfg, pose[2], arena, cfg.drone_radius)
    period, due = 1.0 / tof.rate_hz, -math.inf
    for i in range(cfg.n_ticks()):
        t = i * dt
        if t >= due:
            frame = per_beam_frame(arena, *pose, tof, noise_rng, t)
            due = (int(t / period + 1e-9) + 1) * period - 1e-9
        ps, sp = policy_step(cfg.policy, ps, frame, pose[2], dt, cfg.policy_cfg, policy_rng)
        seen, pose = pose, vehicle.step(*pose, sp, dt)
        blocked = arena.disc_blocked(pose[0], pose[1], cfg.drone_radius)
        yield t, seen, frame, ps, sp, pose, blocked
        if blocked:
            break


def replay_log(lines, width, height):
    """Replay the lines of a trajectory log into a fresh occupancy grid.

    Yields ``(t, grid)`` for the start sample (empty grid) and then after
    marking each later sample with the time gap to its predecessor; only
    the final sample may lie outside the room, and it is clamped into it.
    The grid is one object updated in place.  The first bad line raises
    :class:`SimError` naming it, as ``report.coverage_series_csv`` does.
    """
    lines = iter(lines)  # shared with the parser: the line after a sample is unread
    grid = OccupancyGrid(width, height)
    last_t = None
    for n, (t, x, y, *_) in enumerate(parse_trajectory(lines), 2):
        if last_t is not None and not t - last_t > 0.0:
            raise SimError(f"line {n}: t does not increase")
        if not (0.0 <= x <= width and 0.0 <= y <= height):
            if next(lines, None) is not None:
                raise SimError(f"line {n}: ({x}, {y}) lies outside the {width} x {height} m room")
            x, y = min(max(x, 0.0), width), min(max(y, 0.0), height)
        if last_t is not None:
            grid.mark(x, y, t - last_t)
        last_t = t
        yield t, grid
    if last_t is None:
        raise SimError("trajectory log has no samples")


def coverage_series(lines, width, height):
    """The text of ``report.coverage_series_csv`` and the replayed grid,
    from ``replay_log``, formatting the coverage of every sample."""
    rows = ["t,coverage\n"]
    grid = None
    for t, grid in replay_log(lines, width, height):
        rows.append(f"{t:.6f},{grid.coverage():.6f}\n")
    return "".join(rows), grid


def flight_grid(cfg):
    """The dwell grid of the flight of ``cfg``, one ``mark`` per tick: its
    ``dt`` at the six-decimal position of the pose ``fly`` moves to, which
    is clamped into the room on the blocked tick."""
    width, height = cfg.arena.width, cfg.arena.height
    grid = OccupancyGrid(width, height)
    for *_, (x, y, _), blocked in fly(cfg):
        x, y = float(f"{x:.6f}"), float(f"{y:.6f}")
        if blocked:
            x, y = min(max(x, 0.0), width), min(max(y, 0.0), height)
        grid.mark(x, y, cfg.control_dt)
    return grid


def detection_ledger(cfg):
    """The ledger of the detector of ``cfg``, ``None`` without one, built
    after its flight from the poses that ``fly`` moves to: the pose after
    tick i, at time i * dt, takes each frame k whose instant k / fps no
    earlier tick reached (within 1e-9 of a tick), in order, and evaluates
    the camera there with a draw from the mission's ``detect`` stream.  The
    blocked tick fires no frame, nor does any tick after the last."""
    det = cfg.detector
    if det is None:
        return None
    poses = [pose for *_, pose, blocked in fly(cfg) if not blocked]
    rng = random.Random(derive_seed(cfg.seed, "detect"))
    ledger = DetectionLedger()
    k = 1
    for i, pose in enumerate(poses, 1):
        while k / det.fps / cfg.control_dt - 1e-9 <= i:
            attempt_detection(det, objects_in_fov(cfg.arena, *pose, cfg.camera), ledger,
                              k / det.fps, rng)
            k += 1
    return ledger
