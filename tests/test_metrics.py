import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim.errors import ValidationError
from exploresim.harness import MAX_TICKS
from exploresim.kinds import TIME_STEP
from exploresim.metrics import (MAX_CSV_LINE, MAX_SIDE_CELLS, EnergyModel, OccupancyGrid,
                                dwell_matrix_csv, dwell_matrix_pgm, export_heatmap,
                                mission_energy, parse_dwell_csv)


def default_grid():
    return OccupancyGrid(6.5, 5.5)


class TestGrid:
    def test_default_room_has_143_cells(self):
        grid = default_grid()
        assert (grid.cols, grid.rows) == (13, 11)
        assert grid.total_cells == 143

    def test_mark_first_cell(self):
        grid = default_grid()
        grid.mark(0.1, 0.1, 0.02)
        assert grid.dwell[0] == pytest.approx(0.02)
        assert grid.total_dwell() == pytest.approx(0.02)

    def test_far_corner_clamps_into_last_cell(self):
        grid = default_grid()
        grid.mark(6.49, 5.49, 0.01)
        grid.mark(6.5, 5.5, 0.02)  # closed boundary lands in the edge cell
        assert grid.dwell[10 * grid.cols + 12] == pytest.approx(0.03)
        assert grid.coverage() == pytest.approx(1 / 143)

    def test_conservation_over_a_mission(self):
        grid = default_grid()
        for _ in range(9000):
            grid.mark(3.2, 2.7, 0.02)
        assert grid.total_dwell() == pytest.approx(180.0, abs=1e-6)

    def test_coverage(self):
        grid = default_grid()
        assert grid.coverage() == 0.0
        grid.mark(0.1, 0.1, 1.0)
        assert grid.coverage() == pytest.approx(1 / 143)
        for c in range(13):
            for r in range(11):
                grid.mark(c * 0.5 + 0.25, r * 0.5 + 0.25, 1.0)
        assert grid.coverage() == 1.0

    def test_stationary_hover_covers_one_cell(self):
        grid = default_grid()
        for _ in range(9000):
            grid.mark(3.25, 2.75, 0.02)
        assert grid.coverage() == pytest.approx(1 / 143)

    def test_coverage_monotone(self):
        grid = default_grid()
        last = 0.0
        for i in range(50):
            grid.mark((i % 13) * 0.5 + 0.1, (i % 11) * 0.5 + 0.1, 0.02)
            assert grid.coverage() >= last
            last = grid.coverage()


def _coordinates(side: float):
    """Points along one side of a room: exact cell edges (multiples of 0.5),
    both room edges, their float neighbours, points within 1e-6 of an edge,
    where rounding to six decimals may cross it, and any point between."""
    edges = st.integers(0, int(side / 0.5)).map(lambda k: k * 0.5)
    near = st.one_of(st.floats(-1e-6, 1e-6), st.sampled_from([-5e-7, 5e-7]),
                     st.sampled_from([-5e-7, 5e-7]).map(lambda d: math.nextafter(d, 0.0)))
    return st.one_of(
        st.sampled_from([0.0, side, math.nextafter(side, 0.0), math.nextafter(0.0, 1.0)]),
        edges.filter(lambda v: v <= side),
        edges.map(lambda v: math.nextafter(v, math.inf)).filter(lambda v: v <= side),
        edges.map(lambda v: math.nextafter(v, 0.0)).filter(lambda v: 0.0 <= v <= side),
        st.tuples(edges, near).map(sum).filter(lambda v: 0.0 <= v <= side),
        st.floats(0.0, side))


def _six(v: float) -> float:
    """``v`` at six decimals, as a trajectory log names it."""
    return float("%.6f" % v)


@st.composite
def _rooms_and_points(draw):
    width = draw(st.sampled_from([6.5, 5.5, 3.2, 0.7, 0.5, 12.25]))
    height = draw(st.sampled_from([5.5, 6.5, 4.1, 0.3, 1.0]))
    points = draw(st.lists(st.tuples(_coordinates(width), _coordinates(height)),
                           min_size=1, max_size=30))
    return width, height, [(width, height), *points]  # the far corner first


@given(_rooms_and_points())
@settings(max_examples=200, deadline=None)
def test_cell_agrees_with_mark_on_every_point(room):
    # deposit puts a raw point where mark puts its six-decimal point
    width, height, points = room
    for x, y in points:
        grid = OccupancyGrid(width, height)
        grid.mark(_six(x), _six(y), 1.0)
        (i,) = [j for j, v in enumerate(grid.dwell) if v]
        c, r = i % grid.cols, i // grid.cols
        x0, x1 = c * 0.5, (c + 1) * 0.5 if c < grid.cols - 1 else math.inf
        y0, y1 = r * 0.5, (r + 1) * 0.5 if r < grid.rows - 1 else math.inf
        assert x0 <= _six(x) < x1 and y0 <= _six(y) < y1

        def firsts(px, py):
            # a deposit of (x, y) then (px, py) is a mark at each six-decimal
            # point; it visits a second cell only where that point leaves i
            probe, marked = OccupancyGrid(width, height), OccupancyGrid(width, height)
            got = probe.deposit([x, px], [y, py], [1.0, 1.0])
            marked.mark(_six(x), _six(y), 1.0)
            marked.mark(_six(px), _six(py), 1.0)
            assert probe.dwell == marked.dwell and probe.ticks == marked.ticks
            assert got == [0] + [1] * (marked.dwell[i] == 1.0)
            return got

        # every six-decimal point of the bounds marks that cell, and deposit
        # keeps it there
        for px in (x0, x1 - 1e-6 if x1 < math.inf else width):
            for py in (y0, y1 - 1e-6 if y1 < math.inf else height):
                if px <= width and py <= height:
                    probe = OccupancyGrid(width, height)
                    probe.mark(px, py, 1.0)
                    assert probe.dwell[i] == 1.0
                    assert firsts(px, py) == [0]
        # a point past a bounded side marks another cell, and is first there
        if x1 <= width:
            assert firsts(x1, y) == [0, 1]
        if y1 <= height:
            assert firsts(x, y1) == [0, 1]
        # raw points within 1e-6 of each bound, on either side of the
        # six-decimal rounding's tie, go where their six-decimal point goes
        for edge, side in ((x0, width), (x1, width), (y0, height), (y1, height)):
            for d in (-1e-6, -5e-7, 5e-7, 1e-6, 3e-7, -3e-7):
                for v in {edge + d, math.nextafter(edge + d, 0.0),
                          math.nextafter(edge + d, math.inf)}:
                    if 0.0 <= v <= side:
                        firsts(v, y) if side == width else firsts(x, v)


# a flight deposits runs of its dt, a replay runs of six-decimal time gaps
_GAPS = st.sampled_from([0.02, 0.1, 1 / 60, 0.3, 1.0, 0.016666, 0.016667, 0.020001])


@given(_rooms_and_points(), st.data())
@settings(max_examples=200, deadline=None)
def test_deposit_equals_that_many_marks(room, data):
    width, height, points = room
    # a walk over the grid of the points' coordinates, which lie on cell
    # bounds, just below them, within 1e-6 of them and on the far edges: each
    # step stays, or moves to a neighbouring coordinate along x, y or both,
    # often across a bound; deposit puts each where mark puts its
    # six-decimal point
    xs, ys = (sorted(set(c)) for c in zip(*points))
    i, k = data.draw(st.integers(0, len(xs) - 1)), data.draw(st.integers(0, len(ys) - 1))
    path = []
    for di, dk, gap in data.draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1),
                                                    _GAPS), max_size=60), label="steps"):
        i, k = min(max(i + di, 0), len(xs) - 1), min(max(k + dk, 0), len(ys) - 1)
        path.append((xs[i], ys[k], gap))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(path)), max_size=4), label="cuts"))
    marked, deposited = OccupancyGrid(width, height), OccupancyGrid(width, height)
    rises = []
    for j, (x, y, gap) in enumerate(path):
        before = marked.coverage()
        marked.mark(_six(x), _six(y), gap)
        if marked.coverage() != before:
            rises.append(j)
    firsts = []
    for a, b in zip([0, *cuts], [*cuts, len(path)]):
        xs, ys, gaps = zip(*path[a:b]) if a < b else ((), (), ())
        firsts += [a + j for j in deposited.deposit(xs, ys, gaps)]
    # bit for bit: the same additions in the same order, however the path is cut
    assert [v.hex() for v in deposited.dwell] == [v.hex() for v in marked.dwell]
    assert deposited.ticks == marked.ticks
    assert deposited._visited == marked._visited
    assert firsts == rises


class TestHeatmapArtifacts:
    def test_csv_round_trip(self):
        grid = default_grid()
        grid.mark(0.3, 0.2, 1.234567)
        grid.mark(6.1, 5.2, 17.5)
        matrix = grid.matrix_north_first()
        back = parse_dwell_csv(io.StringIO(dwell_matrix_csv(matrix)))
        assert len(back) == 11 and len(back[0]) == 13
        for row_a, row_b in zip(matrix, back):
            for a, b in zip(row_a, row_b):
                assert abs(a - b) <= 1e-6

    def test_the_longest_line_is_a_row_of_the_longest_flight(self):
        # a cell holds at most a flight's time: MAX_TICKS ticks of the longest step
        with pytest.raises(ValidationError):
            TIME_STEP(math.nextafter(1.0, 2.0), "run.control_dt")
        row = dwell_matrix_csv([[MAX_TICKS * TIME_STEP(1.0, "run.control_dt")] * MAX_SIDE_CELLS])
        assert len(row) == MAX_CSV_LINE
        assert parse_dwell_csv(io.StringIO(row)) == [[1e6] * MAX_SIDE_CELLS]

    def test_csv_orientation_row0_is_north(self):
        grid = default_grid()
        grid.mark(0.1, 5.4, 2.0)  # north-west cell
        matrix = parse_dwell_csv(io.StringIO(dwell_matrix_csv(grid.matrix_north_first())))
        assert matrix[0][0] == pytest.approx(2.0)
        assert matrix[-1][0] == 0.0

    def test_pgm_empty_is_black(self):
        pgm = dwell_matrix_pgm([[0.0] * 13 for _ in range(11)])
        header, body = pgm.split(b"255\n", 1)
        assert header == b"P5\n416 352\n"
        assert set(body) == {0}

    def test_pgm_saturation_and_midpoint(self):
        # one saturated cell renders a white 32x32 block, 9 s renders 128
        pgm = dwell_matrix_pgm([[18.0, 9.0, 25.0]])
        body = pgm.split(b"255\n", 1)[1]
        row = body[:96]
        assert row[:32] == b"\xff" * 32
        assert row[32:64] == bytes([128]) * 32
        assert row[64:96] == b"\xff" * 32  # clamped above saturation

    def test_export_files(self, tmp_path):
        grid = default_grid()
        grid.mark(1.1, 1.1, 3.0)
        export_heatmap(grid, tmp_path / "h.csv", tmp_path / "h.pgm")
        assert (tmp_path / "h.csv").exists()
        assert (tmp_path / "h.pgm").read_bytes().startswith(b"P5\n")


class TestEnergy:
    def test_180s_mission(self):
        energy = mission_energy(EnergyModel(), 180.0)
        assert energy["total"] == pytest.approx(1443.6, abs=1e-9)
        assert energy["motors"] == pytest.approx(7.32 * 180.0)
        assert energy["aideck"] == pytest.approx(24.12)

    def test_zero_duration(self):
        assert mission_energy(EnergyModel(), 0.0)["total"] == 0.0

    def test_aideck_share(self):
        em = EnergyModel()
        assert em.p_aideck / em.p_total * 100.0 == pytest.approx(1.67, abs=0.005)

    def test_components_sum_to_total_within_rounding(self):
        em = EnergyModel()
        parts = em.p_motors + em.p_cf + em.p_aideck + em.p_multiranger
        assert abs(parts - em.p_total) <= 0.005

    def test_inconsistent_components_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(p_motors=5.0)
