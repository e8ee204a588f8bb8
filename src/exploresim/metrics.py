"""Occupancy grid bookkeeping, coverage, heatmap export, energy accounting.

The grid divides the room into square cells (0.5 m default; the default
room yields 13 x 11 = 143 cells).  Each control tick deposits its dt
into the cell containing the drone's center, so total dwell equals
elapsed flight time.  Coverage is visited cells over total cells.

Heatmaps export as a CSV dwell matrix (row 0 = north) and a binary PGM
with one 32 x 32 pixel block per cell, intensity linear in dwell up to a
saturation time (18 s default), black for unvisited cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfBoundsError

DEFAULT_CELL_SIZE = 0.5
HEATMAP_SATURATION_S = 18.0
PGM_CELL_PIXELS = 32


class OccupancyGrid:
    def __init__(self, width: float, height: float, cell_size: float = DEFAULT_CELL_SIZE):
        if cell_size <= 0.0:
            raise ValueError("cell_size must be > 0")
        self.width = float(width)
        self.height = float(height)
        self.cell_size = float(cell_size)
        self.cols = int(math.ceil(width / cell_size - 1e-9))
        self.rows = int(math.ceil(height / cell_size - 1e-9))
        self.dwell = [0.0] * (self.rows * self.cols)
        self._visited = 0

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        """(col, row) of the cell containing (x, y), clamped at the far edge."""
        c = int(x / self.cell_size)
        r = int(y / self.cell_size)
        if c >= self.cols:
            c = self.cols - 1
        if r >= self.rows:
            r = self.rows - 1
        return c, r

    def mark(self, x: float, y: float, dt: float) -> None:
        """Deposit dt seconds of dwell into the cell containing (x, y)."""
        if not (0.0 <= x <= self.width and 0.0 <= y <= self.height):
            raise OutOfBoundsError(f"position ({x}, {y}) outside the room")
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        c, r = self.cell_index(x, y)
        i = r * self.cols + c
        if self.dwell[i] == 0.0:
            self._visited += 1
        self.dwell[i] += dt

    @property
    def total_cells(self) -> int:
        return self.rows * self.cols

    def visited_cells(self) -> int:
        return self._visited

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


def dwell_matrix_csv(matrix: list[list[float]]) -> str:
    """Render a north-first dwell matrix as fixed-format CSV text."""
    return "".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in matrix)


def parse_dwell_csv(text: str) -> list[list[float]]:
    """Inverse of :func:`dwell_matrix_csv` (north-first rows)."""
    rows = []
    for line in text.splitlines():
        if line.strip():
            rows.append([float(v) for v in line.split(",")])
    return rows


def dwell_matrix_pgm(matrix: list[list[float]],
                     saturation: float = HEATMAP_SATURATION_S,
                     cell_pixels: int = PGM_CELL_PIXELS) -> bytes:
    """Binary PGM (P5, maxval 255) of a north-first dwell matrix.

    Intensity is min(dwell, saturation) / saturation scaled to 8 bits
    with round-half-up; unvisited cells stay black.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    header = f"P5\n{cols * cell_pixels} {rows * cell_pixels}\n255\n".encode("ascii")
    body = bytearray()
    for row in matrix:
        line = bytearray()
        for v in row:
            if v > saturation:
                v = saturation
            line += bytes([int(v / saturation * 255.0 + 0.5)]) * cell_pixels
        body += bytes(line) * cell_pixels
    return header + bytes(body)


def export_heatmap(grid: OccupancyGrid, csv_path, pgm_path,
                   saturation: float = HEATMAP_SATURATION_S) -> None:
    """Write the grid's dwell matrix as a CSV / PGM artifact pair."""
    matrix = grid.matrix_north_first()
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dwell_matrix_csv(matrix))
    with open(pgm_path, "wb") as fh:
        fh.write(dwell_matrix_pgm(matrix, saturation))


@dataclass(frozen=True)
class EnergyModel:
    """Constant per-component electrical powers of the platform, watts.

    ``p_total`` is the platform's published total draw; the components
    must sum to it within rounding (0.005 W).
    """

    p_motors: float = 7.32
    p_cf: float = 0.277
    p_aideck: float = 0.134
    p_multiranger: float = 0.286
    p_total: float = 8.02

    def __post_init__(self):
        parts = self.p_motors + self.p_cf + self.p_aideck + self.p_multiranger
        if min(self.p_motors, self.p_cf, self.p_aideck, self.p_multiranger) < 0.0:
            raise ValueError("component powers must be >= 0")
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
