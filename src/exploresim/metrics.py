"""Occupancy grid bookkeeping, coverage, heatmap export, energy accounting.

The grid divides the room into square 0.5 m cells (the default room
yields 13 x 11 = 143 cells).  Each control tick deposits its dt
into the cell containing the drone's center, so total dwell equals
elapsed flight time.  Coverage is visited cells over total cells.
A flight or a log replay stays in one cell for tens of samples: it
deposits a path of samples at a time (:meth:`OccupancyGrid.deposit`),
which finds each run of samples in one cell and adds their time gaps
there together, with the same float sums as marking each sample's
six-decimal position, the one its log row names, in turn
(:meth:`OccupancyGrid.mark`); it rounds a sample only near a cell edge.

Heatmaps export as a CSV dwell matrix (row 0 = north) and a binary PGM
with one 32 x 32 pixel block per cell, intensity linear in dwell up to a
saturation time (18 s default), black for unvisited cells.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import count
from operator import add

from .errors import SimError
from .kinds import MAX_ROOM_SIDE, NON_NEGATIVE, POSITIVE, Model

DEFAULT_CELL_SIZE = 0.5
HEATMAP_SATURATION_S = 18.0
PGM_CELL_PIXELS = 32
# the most cells a room's grid has on a side
MAX_SIDE_CELLS = int(math.ceil(MAX_ROOM_SIDE / DEFAULT_CELL_SIZE - 1e-9))
# within this of a cell's upper bound a point may round to six decimals
# across it, so :meth:`OccupancyGrid.deposit` rounds it
_EDGE = 1e-6


class OccupancyGrid:
    def __init__(self, width: float, height: float):
        self.width = float(width)
        self.height = float(height)
        self.cols = int(math.ceil(width / DEFAULT_CELL_SIZE - 1e-9))
        self.rows = int(math.ceil(height / DEFAULT_CELL_SIZE - 1e-9))
        self.dwell = [0.0] * (self.rows * self.cols)
        self.ticks = [0] * (self.rows * self.cols)  # deposits made in each cell
        self._visited = 0

    def mark(self, x: float, y: float, dt: float) -> None:
        """Deposit dt seconds of dwell into the cell containing (x, y); a
        point on the far edge of the room lands in the edge cell.

        Not checked here: (x, y) must lie in the closed room and dt be
        > 0.  A flight deposits at six-decimal free-space states and a
        clamped crash state; a replay checks the room and that ``t``
        increases.
        """
        cols = self.cols
        c = int(x / DEFAULT_CELL_SIZE)
        if c >= cols:
            c = cols - 1
        r = int(y / DEFAULT_CELL_SIZE)
        if r >= self.rows:
            r = self.rows - 1
        i = r * cols + c
        dwell = self.dwell
        if dwell[i] == 0.0:
            self._visited += 1
        dwell[i] += dt
        self.ticks[i] += 1

    def deposit(self, xs, ys, gaps) -> list[int]:
        """Deposit each time gap of the sequence ``gaps`` at the six-decimal
        point ``(float("%.6f" % xs[j]), float("%.6f" % ys[j]))`` of the same
        index ``j``, as :meth:`mark` would there, and return the indices at
        which a cell is first visited, in order: the cell that a trajectory
        log's text names, for raw or six-decimal coordinates alike.  Each
        run of points in one cell adds its gaps there one at a time, in
        order, so the grid holds bit for bit the sums of a :meth:`mark` per
        point, however a path is split between runs or calls.

        A point is rounded only where a run starts.  A run goes on while a
        point lies in its cell's bounds ``c * 0.5 <= x < (c + 1) * 0.5 - 1e-6``
        (so for y; the far edge cells are unbounded above): ``"%.6f"`` rounds
        monotonically and keeps a multiple of 0.5, so such a point rounds
        into the cell.  A point outside them is rounded and starts a run
        at its cell, which may be the same one."""
        size, cols, rows = DEFAULT_CELL_SIZE, self.cols, self.rows
        # the first point and the cell of each run; the bounds of no cell
        # hold a point before the first
        starts, cells = [], []
        x0 = x1 = y0 = y1 = 0.0
        for j, x, y in zip(count(), xs, ys):
            if x0 <= x < x1 and y0 <= y < y1:
                continue
            c = min(int(float("%.6f" % x) / size), cols - 1)
            r = min(int(float("%.6f" % y) / size), rows - 1)
            x0, x1 = c * size, (c + 1) * size - _EDGE if c < cols - 1 else math.inf
            y0, y1 = r * size, (r + 1) * size - _EDGE if r < rows - 1 else math.inf
            starts.append(j)
            cells.append(r * cols + c)
        dwell, ticks = self.dwell, self.ticks
        firsts = []
        for a, b, i in zip(starts, [*starts[1:], len(gaps)], cells):
            if dwell[i] == 0.0:
                self._visited += 1
                firsts.append(a)
            dwell[i] = reduce(add, gaps[a:b], dwell[i])
            ticks[i] += b - a
        return firsts

    @property
    def total_cells(self) -> int:
        return self.rows * self.cols

    def total_dwell(self) -> float:
        return sum(self.dwell)

    def coverage(self) -> float:
        """Visited-cell count over total cells."""
        return self._visited / self.total_cells

    def dwell_at(self, col: int, row: int) -> float:
        return self.dwell[row * self.cols + col]

    def matrix_north_first(self) -> list[list[float]]:
        """Dwell rows ordered north to south (export orientation)."""
        return [self.dwell[r * self.cols:(r + 1) * self.cols]
                for r in range(self.rows - 1, -1, -1)]


def mean_grid(grids: list[OccupancyGrid]) -> OccupancyGrid:
    """Cell-wise mean dwell of grids over one room: each cell summed in
    list order, then divided by the number of grids."""
    mean = OccupancyGrid(grids[0].width, grids[0].height)
    mean.dwell = [sum(cells) / len(grids) for cells in zip(*(g.dwell for g in grids))]
    mean._visited = sum(v > 0.0 for v in mean.dwell)
    return mean


def dwell_matrix_csv(matrix: list[list[float]]) -> str:
    """Render a north-first dwell matrix as fixed-format CSV text."""
    return "".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in matrix)


def parse_dwell_csv(text: str) -> list[list[float]]:
    """Inverse of :func:`dwell_matrix_csv` (north-first rows); a
    :class:`SimError` names the first line that is not a row of finite
    dwell times >= 0 as long as the first row."""
    rows = []
    for n, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError as exc:
                raise SimError(f"line {n}: {exc}") from None
            if not all(0.0 <= v < math.inf for v in row):
                raise SimError(f"line {n}: a dwell time is negative or not finite")
            if rows and len(row) != len(rows[0]):
                raise SimError(f"line {n}: {len(row)} cells, the first row has {len(rows[0])}")
            rows.append(row)
    return rows


def dwell_matrix_pgm(matrix: list[list[float]],
                     saturation: float = HEATMAP_SATURATION_S) -> bytes:
    """Binary PGM (P5, maxval 255) of a north-first dwell matrix.

    Intensity is min(dwell, saturation) / saturation scaled to 8 bits
    with round-half-up; unvisited cells stay black.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    header = f"P5\n{cols * PGM_CELL_PIXELS} {rows * PGM_CELL_PIXELS}\n255\n".encode("ascii")
    body = bytearray()
    for row in matrix:
        line = bytearray()
        for v in row:
            if v > saturation:
                v = saturation
            line += bytes([int(v / saturation * 255.0 + 0.5)]) * PGM_CELL_PIXELS
        body += bytes(line) * PGM_CELL_PIXELS
    return header + bytes(body)


def export_heatmap(grid: OccupancyGrid, csv_path, pgm_path,
                   saturation: float = HEATMAP_SATURATION_S) -> None:
    """Write the grid's dwell matrix as a CSV / PGM artifact pair."""
    matrix = grid.matrix_north_first()
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dwell_matrix_csv(matrix))
    with open(pgm_path, "wb") as fh:
        fh.write(dwell_matrix_pgm(matrix, saturation))


class EnergyModel(Model):
    """Constant per-component electrical powers of the platform, watts.

    ``p_total`` is the platform's published total draw; the components
    must sum to it within rounding (0.005 W).
    """

    p_motors: float = 7.32
    p_cf: float = 0.277
    p_aideck: float = 0.134
    p_multiranger: float = 0.286
    p_total: float = 8.02

    KINDS = {**dict.fromkeys(("p_motors", "p_cf", "p_aideck", "p_multiranger"), NON_NEGATIVE),
             "p_total": POSITIVE}

    def __post_init__(self):
        parts = self.p_motors + self.p_cf + self.p_aideck + self.p_multiranger
        if abs(parts - self.p_total) > 0.005:
            raise ValueError(f"component powers sum to {parts:.4f}, not {self.p_total}")


def mission_energy(em: EnergyModel, duration: float) -> dict[str, float]:
    """Energy in joules per component plus the platform total."""
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    return {
        "motors": em.p_motors * duration,
        "cf_electronics": em.p_cf * duration,
        "aideck": em.p_aideck * duration,
        "multiranger": em.p_multiranger * duration,
        "total": em.p_total * duration,
    }
