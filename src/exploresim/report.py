"""Artifact rendering: CSV tables, logs, and log replay.

All numeric output uses fixed decimal formatting so artifacts are byte
stable across platforms and reruns, which the golden-file and
determinism tests rely on.
"""

from __future__ import annotations

import math

from .arena import Arena
from .errors import SimError
from .harness import AggregateRow, SweepRow, TRAJECTORY_HEADER, RunResult
from .metrics import OccupancyGrid

RUNS_CSV_HEADER = "policy,speed,detector,run,seed,coverage,detection_rate,collision,energy_j,digest"
AGGREGATE_CSV_HEADER = ("policy,speed,detector,runs,coverage_mean,coverage_var,"
                        "rate_mean,rate_var")
DETECTIONS_CSV_HEADER = "object_id,class,t_first_seen"
SERIES_CSV_HEADER = "t,coverage"
_TRAJECTORY_FIELDS = TRAJECTORY_HEADER.count(",") + 1


def _opt(value: float | None, fmt: str) -> str:
    return "" if value is None else format(value, fmt)


def runs_csv(rows: list[SweepRow]) -> str:
    out = [RUNS_CSV_HEADER]
    for r in rows:
        out.append(
            f"{r.policy},{r.speed:.3f},{r.detector or 'none'},{r.run},{r.seed},"
            f"{r.coverage:.6f},{_opt(r.detection_rate, '.6f')},{int(r.collision)},"
            f"{r.energy_j:.1f},{r.digest:016x}"
        )
    return "\n".join(out) + "\n"


def aggregate_csv(rows: list[AggregateRow]) -> str:
    out = [AGGREGATE_CSV_HEADER]
    for r in rows:
        out.append(
            f"{r.policy},{r.speed:.3f},{r.detector or 'none'},{r.runs},"
            f"{r.coverage_mean:.6f},{r.coverage_var:.8f},"
            f"{_opt(r.rate_mean, '.6f')},{_opt(r.rate_var, '.8f')}"
        )
    return "\n".join(out) + "\n"


def detection_matrix_csv(matrix: dict, policies: tuple[str, ...]) -> str:
    """Render the (detector, speed) x policy mean-rate matrix."""
    out = ["detector,speed," + ",".join(policies)]
    for (det, speed) in sorted(matrix, key=lambda k: (k[0], k[1])):
        cells = matrix[(det, speed)]
        vals = ",".join(_opt(cells.get(p), ".6f") for p in policies)
        out.append(f"{det},{speed:.3f},{vals}")
    return "\n".join(out) + "\n"


def detections_csv(result: RunResult, arena: Arena) -> str:
    """Detections log: one row per object found, ordered by time."""
    classes = {obj.id: obj.cls for obj in arena.objects}
    out = [DETECTIONS_CSV_HEADER]
    ledger = result.ledger
    if ledger is not None:
        for oid, t in sorted(ledger.first_seen.items(), key=lambda kv: (kv[1], kv[0])):
            out.append(f"{oid},{classes[oid]},{t:.6f}")
    return "\n".join(out) + "\n"


def _parse_rows(lines: list[str], row) -> list:
    """``row`` of each line after the header; a :class:`SimError` names the
    first line that ``row`` rejects with a ``ValueError``."""
    try:
        return [row(line) for line in lines[1:]]
    except ValueError:
        for n, line in enumerate(lines[1:], 2):
            try:
                row(line)
            except ValueError as exc:
                raise SimError(f"line {n}: {exc}") from None
        raise


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _trajectory_row(line: str) -> tuple[float, ...]:
    row = tuple(map(_finite, line.split(",")))
    if len(row) != _TRAJECTORY_FIELDS:
        raise ValueError(f"expected {_TRAJECTORY_FIELDS} fields, got {len(row)}")
    return row


def parse_trajectory(text: str) -> list[tuple[float, float, float, float, float, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise SimError("trajectory log is missing its header row")
    try:
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        # a NaN or infinity makes the sum non-finite; so would an overflow,
        # which the slow path then accepts value by value
        if set(map(len, rows)) <= {_TRAJECTORY_FIELDS} and math.isfinite(sum(map(sum, rows))):
            return rows
    except ValueError:
        pass
    return _parse_rows(lines, _trajectory_row)  # names the first bad line


def replay_trajectory(text: str, width: float, height: float):
    """Replay a trajectory log into a fresh occupancy grid.

    Yields ``(t, grid)`` for the start sample (empty grid) and then after
    marking each later sample with the time gap to its predecessor,
    exactly mirroring the run loop.  Only the final sample may lie outside
    the room (a collision's crash state); it is clamped into it.  The grid
    is one object updated in place.  After the last sample it matches the
    run's grid cell for cell because the loop marks log-quantized
    coordinates.  A malformed row, a ``t`` that does not increase or an
    earlier sample outside the room raises :class:`SimError` naming its
    line; a row is malformed unless it holds six finite numbers.
    """
    rows = parse_trajectory(text)
    if not rows:
        raise SimError("trajectory log has no samples")
    final = len(rows) + 1  # line number of the last sample

    def outside(n: int, x: float, y: float) -> SimError:
        return SimError(f"line {n}: ({x}, {y}) lies outside the {width} x {height} m room")

    if len(rows) > 1 and not (0.0 <= rows[0][1] <= width and 0.0 <= rows[0][2] <= height):
        raise outside(2, rows[0][1], rows[0][2])
    grid = OccupancyGrid(width, height)
    yield rows[0][0], grid
    for n, (prev, cur) in enumerate(zip(rows, rows[1:]), 3):
        dt = cur[0] - prev[0]
        if not dt > 0.0:
            raise SimError(f"line {n}: t does not increase")
        x, y = cur[1], cur[2]
        if not (0.0 <= x <= width and 0.0 <= y <= height):
            if n != final:
                raise outside(n, x, y)
            x = min(max(x, 0.0), width)
            y = min(max(y, 0.0), height)
        grid.mark(x, y, dt)
        yield cur[0], grid


def coverage_series_csv(text: str, width: float, height: float) -> str:
    """Coverage over time recomputed from a trajectory log."""
    out = [SERIES_CSV_HEADER]
    for t, grid in replay_trajectory(text, width, height):
        out.append(f"{t:.6f},{grid.coverage():.6f}")
    return "\n".join(out) + "\n"


def parse_runs_csv(text: str) -> list[SweepRow]:
    lines = text.splitlines()
    if not lines or lines[0] != RUNS_CSV_HEADER:
        raise SimError("runs table is missing its header row")
    return [row for row in _parse_rows(lines, _runs_row) if row is not None]


def _runs_row(line: str) -> SweepRow | None:
    if not line.strip():
        return None
    (policy, speed, det, run, seed, cov, rate, coll, energy, digest) = line.split(",")
    return SweepRow(
        policy=policy,
        speed=_finite(speed),
        detector=None if det == "none" else det,
        run=int(run),
        seed=int(seed),
        coverage=_finite(cov),
        detection_rate=_finite(rate) if rate else None,
        collision=bool(int(coll)),
        energy_j=_finite(energy),
        digest=int(digest, 16),
    )
