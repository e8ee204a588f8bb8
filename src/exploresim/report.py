"""Artifact rendering: CSV tables, logs, and log replay.

All numeric output uses fixed decimal formatting so artifacts are byte
stable across platforms and reruns, which the golden-file and
determinism tests rely on.  Artifacts are parsed a line at a time, as
they are read; an error names the first bad line in file order.
"""

from __future__ import annotations

import math

from .arena import Arena
from .errors import SimError
from .harness import _LOG_CHUNK, AggregateRow, SweepRow, TRAJECTORY_HEADER, RunResult
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


def _parse_lines(lines, header: str, row):
    """``row`` of each line after the header line ``header``, as it is read; a
    :class:`SimError` names the first line that ``row`` rejects with a ``ValueError``."""
    lines = iter(lines)
    if next(lines, "").rstrip("\n") != header:
        raise SimError(f"line 1: expected the header {header!r}")
    for n, line in enumerate(lines, 2):
        try:
            value = row(line.rstrip("\n"))
        except ValueError as exc:
            raise SimError(f"line {n}: {exc}") from None
        yield value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _sample(line: str) -> tuple[float, ...]:
    row = tuple(map(float, line.split(",")))
    if len(row) != _TRAJECTORY_FIELDS or not all(map(math.isfinite, row)):
        raise ValueError(f"expected {_TRAJECTORY_FIELDS} finite numbers, got {line!r}")
    return row


def parse_trajectory(lines):
    """The samples ``(t, x, y, heading, v_cmd, omega_cmd)`` of the trajectory
    log ``lines``, as they are read; each line holds six finite numbers."""
    return _parse_lines(lines, TRAJECTORY_HEADER, _sample)


def replay_trajectory(lines, width: float, height: float):
    """Replay the lines of a trajectory log into a fresh occupancy grid as they are read.

    Yields ``(t, grid)`` for the start sample (empty grid) and then after
    marking each later sample with the time gap to its predecessor,
    exactly mirroring the run loop.  Only the final sample may lie outside
    the room (a collision's crash state); it is clamped into it.  The grid
    is one object updated in place.  After the last sample it matches the
    run's grid cell for cell because the loop marks log-quantized
    coordinates.  The first bad line in file order raises
    :class:`SimError` naming it: a malformed row, a ``t`` that does not
    increase, or a sample outside the room that another line follows.
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


def hashed(lines, hasher):
    """The lines of ``lines`` as they are read, each hashed into ``hasher``
    first: a trajectory log's digest (see ``harness.fly_logged``) comes
    out of the pass that replays it."""
    update = hasher.update
    for line in lines:
        update(line.encode())
        yield line


def coverage_series_csv(lines, width: float, height: float, out) -> str:
    """Write the coverage over time replayed from the trajectory log ``lines``
    to the open text file ``out``, at most ``_LOG_CHUNK`` lines per write;
    return the final coverage as written."""
    rows = [SERIES_CSV_HEADER + "\n"]
    last = None
    for t, grid in replay_trajectory(lines, width, height):
        value = grid.coverage()
        if value != last:  # most samples visit no new cell
            last = value
            coverage = f"{value:.6f}"
        rows.append(f"{t:.6f},{coverage}\n")
        if len(rows) == _LOG_CHUNK:
            out.write("".join(rows))
            rows = []
    out.write("".join(rows))
    return coverage


def parse_runs_csv(lines) -> list[SweepRow]:
    """The rows of a runs table, an iterable of its lines."""
    return [row for row in _parse_lines(lines, RUNS_CSV_HEADER, _runs_row) if row is not None]


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


def parse_detections_csv(lines) -> list[tuple[int, str, float]]:
    """``(object_id, class, t_first_seen)`` of each row of a detections log."""
    return list(_parse_lines(lines, DETECTIONS_CSV_HEADER, _detections_row))


def _detections_row(line: str) -> tuple[int, str, float]:
    oid, cls, t = line.split(",")
    if not cls:
        raise ValueError("no object class")
    return int(oid), cls, _finite(t)
