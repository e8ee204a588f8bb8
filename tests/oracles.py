"""Independent oracles the tests check the simulator against.

These deliberately avoid the library's analytic code paths: the ray
oracle advances in 1 mm steps with numpy point tests, the motion oracle
re-integrates set-points at a much finer step, and the replay oracle
passes a trajectory log through the row parser a line at a time.
"""

from __future__ import annotations

import math

import numpy as np

from exploresim.errors import SimError
from exploresim.metrics import OccupancyGrid
from exploresim.report import parse_trajectory


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
