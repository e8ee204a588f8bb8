import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim.arena import Arena
from exploresim.vehicle import Setpoint, VehicleState, normalize_heading, step

from oracles import fine_integrate


class TestStep:
    def test_straight_line(self):
        s = step(VehicleState(1.0, 1.0, 0.0), Setpoint(0.5, 0.0), 0.02)
        assert s.x == pytest.approx(1.01, abs=1e-12)
        assert s.y == pytest.approx(1.0, abs=1e-12)

    def test_pure_rotation_half_turn(self):
        s = step(VehicleState(2.0, 2.0, 0.0), Setpoint(0.0, math.pi), 1.0)
        assert s.heading == pytest.approx(-math.pi)
        assert (s.x, s.y) == (2.0, 2.0)

    def test_arc_against_fine_integration(self):
        s = VehicleState(1.0, 1.0, 0.3)
        sp = Setpoint(0.5, 1.0)
        for _ in range(100):
            s = step(s, sp, 0.02)
        fx, fy, fh = fine_integrate(1.0, 1.0, 0.3, 0.5, 1.0, 2.0, 1000)
        assert math.hypot(s.x - fx, s.y - fy) < 1e-3
        assert abs(normalize_heading(s.heading - fh)) < 1e-9

    def test_arc_length_is_commanded_distance(self):
        s = VehicleState(3.0, 3.0, 0.0)
        total = 0.0
        length = 0.0
        for i in range(500):
            sp = Setpoint(0.4 + 0.001 * (i % 7), 0.8)
            prev = s
            s = step(s, sp, 0.02)
            length += math.hypot(s.x - prev.x, s.y - prev.y)
            total += abs(sp.v) * 0.02
        assert length == pytest.approx(total, rel=1e-9)

    def test_state_takes_no_attribute_beyond_its_three_fields(self):
        s = VehicleState(1.0, 2.0, 0.5)
        with pytest.raises(AttributeError):
            s.z = 0.0
        assert (s.x, s.y, s.heading) == (1.0, 2.0, 0.5)
        assert s == VehicleState(1.0, 2.0, 0.5) != VehicleState(1.0, 2.0, -0.5)
        assert repr(s) == "VehicleState(x=1.0, y=2.0, heading=0.5)"


@given(st.floats(-math.pi, math.pi - 1e-9), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_rotation_reversible(h0, omega):
    s = VehicleState(1.0, 1.0, h0)
    s = step(s, Setpoint(0.0, omega), 0.02)
    s = step(s, Setpoint(0.0, -omega), 0.02)
    assert abs(normalize_heading(s.heading - h0)) < 1e-12


@given(st.floats(-50.0, 50.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent(h):
    n = normalize_heading(h)
    assert -math.pi <= n < math.pi
    assert normalize_heading(n) == n


class TestCollision:
    """The airframe disc test the run loop applies after every step."""

    def test_center_of_empty_room(self, room):
        assert not room.disc_blocked(3.25, 2.75, 0.05)

    def test_wall_penetration(self, room):
        assert room.disc_blocked(0.02, 2.75, 0.05)

    def test_grazing_exactly_at_radius_is_free(self):
        # face contact at exactly r (binary-exact values) is not a collision
        arena = Arena(6.5, 5.5, obstacles=[(2.0, 2.0, 3.0, 3.0)])
        assert not arena.disc_blocked(1.75, 2.5, 0.25)
        # corner contact at exactly r via a 0.75/1.0/1.25 triple
        corner = Arena(6.5, 5.5, obstacles=[(3.0, 3.0, 4.0, 4.0)])
        assert not corner.disc_blocked(2.25, 2.0, 1.25)
        # any closer penetrates
        assert arena.disc_blocked(1.76, 2.5, 0.25)

    def test_wall_touch_is_free(self, room):
        assert not room.disc_blocked(0.25, 2.75, 0.25)
