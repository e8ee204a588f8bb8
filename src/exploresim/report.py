"""Artifact rendering: CSV tables, logs, and log replay.

All numeric output uses fixed decimal formatting so artifacts are byte
stable across platforms and reruns, which the golden-file and
determinism tests rely on.  Artifacts are parsed as they are read: a
trajectory log as bytes, a block of lines at a time, with each check
made on whole columns of the block, and the other tables as text, a
line at a time.  An error names the first bad line in file order; in a
trajectory log, a byte outside ASCII makes its line a malformed one.
"""

from __future__ import annotations

from itertools import repeat
from math import inf, isfinite
from operator import sub

from .arena import Arena
from .errors import SimError
from .harness import AggregateRow, SweepRow, TRAJECTORY_HEADER, RunResult
from .metrics import MAX_CSV_LINE, OccupancyGrid, dwell_matrix_csv, parse_dwell_csv

RUNS_CSV_HEADER = "policy,speed,detector,run,seed,coverage,detection_rate,collision,energy_j,digest"
AGGREGATE_CSV_HEADER = ("policy,speed,detector,runs,coverage_mean,coverage_var,"
                        "rate_mean,rate_var")
DETECTIONS_CSV_HEADER = "object_id,class,t_first_seen"
SERIES_CSV_HEADER = "t,coverage"
_TRAJECTORY_FIELDS = TRAJECTORY_HEADER.count(",") + 1
_BLOCK_CHARS = 1 << 15  # bytes of a trajectory log read and hashed as one block of lines


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
    if not isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _sample(line: str) -> tuple[float, ...]:
    row = tuple(map(float, line.split(",")))
    # a finite sum means finite fields; finite fields may still overflow it
    if len(row) != _TRAJECTORY_FIELDS or not (isfinite(sum(row)) or all(map(isfinite, row))):
        raise ValueError(f"expected {_TRAJECTORY_FIELDS} finite numbers, got {line!r}")
    return row


def parse_trajectory(lines):
    """The samples ``(t, x, y, heading, v_cmd, omega_cmd)`` of the trajectory
    log ``lines``, as they are read; each line holds six finite numbers."""
    return _parse_lines(lines, TRAJECTORY_HEADER, _sample)


def _block_columns(lines, last_t: float, width: float, height: float, final: bool):
    """The ``t``, ``x`` and ``y`` columns and the ``t`` gaps of the samples of
    ``lines``, a block of log lines as bytes that follows a sample at
    ``last_t``, each check made once for the whole block; ``None`` if a line
    fails one.  ``float()`` parses bytes, and refuses any byte outside ASCII.
    When no line follows the block (``final``), its last sample is clamped
    into the room first: only a crash state may lie outside it."""
    if list(map(bytes.count, lines, repeat(b","))).count(_TRAJECTORY_FIELDS - 1) != len(lines):
        return None
    try:  # float() ignores the "\n" that each line's last field keeps
        row = list(map(float, b",".join(lines).split(b",")))
    except ValueError:
        return None
    # a finite sum means finite fields; finite fields may still overflow it
    if not (isfinite(sum(row)) or all(map(isfinite, row))):
        return None
    ts, xs, ys = row[0::_TRAJECTORY_FIELDS], row[1::_TRAJECTORY_FIELDS], row[2::_TRAJECTORY_FIELDS]
    gaps = list(map(sub, ts, [last_t, *ts[:-1]]))
    if final:
        xs[-1], ys[-1] = min(max(xs[-1], 0.0), width), min(max(ys[-1], 0.0), height)
    if (min(gaps) > 0.0 and 0.0 <= min(xs) and max(xs) <= width
            and 0.0 <= min(ys) and max(ys) <= height):
        return ts, xs, ys, gaps
    return None


def _first_fault(lines, n: int, last_t: float, width: float, height: float,
                 final: bool) -> SimError:
    """The error of the first bad line of a block of log lines that
    :func:`_block_columns` rejects, line by line: ``n`` is the number of the
    block's first line, and the other arguments are as there.  A line is
    decoded only to be named: one that holds a byte outside ASCII is
    malformed."""
    last = n + len(lines) - 1
    for n, line in enumerate(lines, n):
        try:
            t, x, y, _, _, _ = _sample(line.decode("ascii").rstrip("\n"))
        except ValueError as exc:
            return SimError(f"line {n}: {exc}")
        if not t - last_t > 0.0:
            return SimError(f"line {n}: t does not increase")
        if not (0.0 <= x <= width and 0.0 <= y <= height) and not (final and n == last):
            return SimError(f"line {n}: ({x}, {y}) lies outside the {width} x {height} m room")
        last_t = t
    raise AssertionError("a block that fails a check holds no bad line")


def coverage_series_csv(log, grid: OccupancyGrid, out, hasher) -> str:
    """Replay the trajectory log ``log``, an open binary file, into ``grid``,
    a fresh occupancy grid of the room, as it is read; write the coverage
    over time to the open text file ``out``, one write per block of the
    log, and return the final coverage as written.

    The log's bytes are read, hashed into ``hasher`` and replayed a block
    of lines at a time: blake2b streams, so the digest equals the flight's
    (``harness.fly_logged``).  Each block's lines are split and parsed
    together, and its checks are made on whole columns; a block that fails
    one is walked line by line to name its first bad line.  Each sample
    after the start deposits the time gap to its predecessor at its
    log-quantized coordinates, a block at a time through
    :meth:`OccupancyGrid.deposit`, as the run loop deposits a chunk, so the
    final grid's cells and tick counts match the run's; a new coverage row
    starts at each sample that visits a cell first.  Only the final sample
    may lie outside the room (a collision's crash state), so a block is
    replayed once the next one is read; the final sample is clamped into
    the room.  The first bad line in file order
    raises :class:`SimError` naming it: a malformed row (a byte outside
    ASCII makes one), a ``t`` that does not increase, or a sample outside
    the room that another line follows.
    """
    def hashed_blocks():
        for block in iter(lambda: log.readlines(_BLOCK_CHARS), []):
            hasher.update(b"".join(block))
            yield block

    blocks = hashed_blocks()
    lines = next(blocks, [b""])
    if lines[0].rstrip(b"\n") != TRAJECTORY_HEADER.encode("ascii"):
        raise SimError(f"line 1: expected the header {TRAJECTORY_HEADER!r}")
    # a block holds more than the header line unless the log ends there
    del lines[0]
    if not lines:
        raise SimError("trajectory log has no samples")
    width, height = grid.width, grid.height
    series = [SERIES_CSV_HEADER + "\n"]  # the rows of a block, then written
    visited, shown = 0, 0.0  # cells visited and coverage so far: the grid is fresh
    row = f"%.6f,{shown:.6f}\n"
    last_t, n, first = -inf, 2, 1  # the start sample deposits nothing
    while lines:
        ahead = next(blocks, [])
        columns = _block_columns(lines, last_t, width, height, not ahead)
        if columns is None:
            raise _first_fault(lines, n, last_t, width, height, not ahead)
        ts, xs, ys, gaps = columns
        span = 0  # the samples from here on share the coverage ``shown``
        for a in grid.deposit(xs[first:], ys[first:], gaps[first:]):
            series.append(row * (first + a - span) % tuple(ts[span:first + a]))
            visited += 1
            shown, span = visited / grid.total_cells, first + a
            row = f"%.6f,{shown:.6f}\n"
        series.append(row * (len(ts) - span) % tuple(ts[span:]))
        out.write("".join(series))
        series = []
        last_t, n, first, lines = ts[-1], n + len(lines), 0, ahead
    return f"{shown:.6f}"


def check_heatmap_csv(f, grid: OccupancyGrid) -> None:
    """Raise :class:`SimError` unless the seekable text file ``f`` is the
    ``heatmap.csv`` that ``run`` writes for the flight that ``grid``
    replays from its log.

    The text must be the six-decimal rendering of a dwell matrix the size
    of the grid.  It is read a line at a time, twice: parsed within the
    bounds of :func:`parse_dwell_csv`, then compared with the rendering of
    each row it parsed to, so a file far past the bounds costs one line.

    A cell's value is not compared digit for digit: the
    flight deposits its ``dt`` on each tick, while the replay deposits the
    gaps between six-decimal times, each within 1e-6 of ``dt``, so at a
    ``dt`` that is not a whole number of microseconds (1/60 s) the two
    sums differ in the last digit.  Each cell is checked against the ticks
    that the replay deposited in it instead: the flight's dwell in a cell
    of ``n`` of the log's ``N`` ticks is ``n * dt``, and the log's final
    time ``T``, the replay's total dwell, is ``N * dt`` within 5e-7 s.  So
    the file's value is within ``5e-7 * (1 + n / N)`` of ``n * T / N``,
    save float rounding: the last digit of a cell is checked unless the
    cell holds every tick.
    """
    matrix = parse_dwell_csv(f)
    f.seek(0)
    if any(f.readline(MAX_CSV_LINE + 1) != dwell_matrix_csv([row]) for row in matrix) \
            or f.read(1):
        raise SimError("not a dwell matrix as run writes it: six decimals, one line a row")
    rows, cols = grid.rows, grid.cols
    if len(matrix) != rows or len(matrix[0]) != cols:
        raise SimError(f"{len(matrix)} x {len(matrix[0]) if matrix else 0} cells, "
                       f"the {grid.width} x {grid.height} m room has {rows} x {cols}")
    ticks = grid.ticks
    n_ticks = max(sum(ticks), 1)  # a log of one sample deposits nothing
    total = grid.total_dwell()
    per_tick = total / n_ticks
    for line_no, row in enumerate(matrix, 1):
        first = (rows - line_no) * cols  # row 0 of the file is the north row
        for c, value in enumerate(row):
            n = ticks[first + c]
            want = n * per_tick
            # rounding to six decimals, the spread of dt, and float sums
            bound = 5e-7 * (1.0 + n / n_ticks) + 2.0 ** -49 * (n + 4) * total
            if abs(value - want) > bound:
                raise SimError(f"line {line_no}: cell {c + 1} holds {value:.6f} s, but the "
                               f"log's {n} ticks in it make {want:.6f} s")


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
