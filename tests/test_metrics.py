import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim.metrics import (EnergyModel, OccupancyGrid, dwell_matrix_csv,
                                dwell_matrix_pgm, export_heatmap,
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
        assert grid.dwell_at(0, 0) == pytest.approx(0.02)
        assert grid.total_dwell() == pytest.approx(0.02)

    def test_far_corner_clamps_into_last_cell(self):
        grid = default_grid()
        grid.mark(6.49, 5.49, 0.01)
        grid.mark(6.5, 5.5, 0.02)  # closed boundary lands in the edge cell
        assert grid.dwell_at(12, 10) == pytest.approx(0.03)
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
    both room edges, their float neighbours and any point between."""
    edges = st.integers(0, int(side / 0.5)).map(lambda k: k * 0.5)
    return st.one_of(
        st.sampled_from([0.0, side, math.nextafter(side, 0.0), math.nextafter(0.0, 1.0)]),
        edges.filter(lambda v: v <= side),
        edges.map(lambda v: math.nextafter(v, math.inf)).filter(lambda v: v <= side),
        edges.map(lambda v: math.nextafter(v, 0.0)).filter(lambda v: 0.0 <= v <= side),
        st.floats(0.0, side))


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
    width, height, points = room
    for x, y in points:
        grid = OccupancyGrid(width, height)
        i, x0, x1, y0, y1 = grid.cell(x, y)
        grid.mark(x, y, 1.0)
        assert grid.dwell[i] == 1.0 and grid.ticks[i] == 1
        # every point of the bounds marks that cell
        assert x0 <= x < x1 and y0 <= y < y1
        for px in (x0, math.nextafter(x1, 0.0) if x1 < math.inf else width):
            for py in (y0, math.nextafter(y1, 0.0) if y1 < math.inf else height):
                if px <= width and py <= height:
                    assert grid.cell(px, py)[0] == i
                    probe = OccupancyGrid(width, height)
                    probe.mark(px, py, 1.0)
                    assert probe.dwell[i] == 1.0
        # and a point past a bounded side marks another
        if x1 <= width:
            assert grid.cell(x1, y)[0] != i
        if y1 <= height:
            assert grid.cell(x, y1)[0] != i


# a flight deposits runs of its dt, a replay runs of six-decimal time gaps
_GAPS = st.sampled_from([0.02, 0.1, 1 / 60, 0.3, 1.0, 0.016666, 0.016667, 0.020001])


@given(_rooms_and_points(), st.lists(st.one_of(
    st.tuples(st.integers(0, 40), _GAPS).map(lambda n_dt: (n_dt[1],) * n_dt[0]),
    st.lists(_GAPS, max_size=40)), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_deposit_equals_that_many_marks(room, runs):
    width, height, points = room
    marked, deposited = OccupancyGrid(width, height), OccupancyGrid(width, height)
    for (x, y), gaps in zip(points * len(runs), runs):
        for dt in gaps:
            marked.mark(x, y, dt)
        deposited.deposit(deposited.cell(x, y)[0], gaps)
    # bit for bit: the same additions in the same order
    assert [v.hex() for v in deposited.dwell] == [v.hex() for v in marked.dwell]
    assert deposited._visited == marked._visited
    assert deposited.ticks == marked.ticks
    assert deposited.coverage() == marked.coverage()


class TestHeatmapArtifacts:
    def test_csv_round_trip(self):
        grid = default_grid()
        grid.mark(0.3, 0.2, 1.234567)
        grid.mark(6.1, 5.2, 17.5)
        matrix = grid.matrix_north_first()
        back = parse_dwell_csv(dwell_matrix_csv(matrix))
        assert len(back) == 11 and len(back[0]) == 13
        for row_a, row_b in zip(matrix, back):
            for a, b in zip(row_a, row_b):
                assert abs(a - b) <= 1e-6

    def test_csv_orientation_row0_is_north(self):
        grid = default_grid()
        grid.mark(0.1, 5.4, 2.0)  # north-west cell
        matrix = parse_dwell_csv(dwell_matrix_csv(grid.matrix_north_first()))
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
