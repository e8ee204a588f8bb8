import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exploresim.arena import Arena, default_arena
from exploresim.harness import RunConfig, fly
from exploresim.policies import POLICY_KINDS
from exploresim.vehicle import Setpoint, normalize_heading, step

from oracles import fine_integrate


class TestStep:
    def test_straight_line(self):
        x, y, _ = step(1.0, 1.0, 0.0, Setpoint(0.5, 0.0), 0.02)
        assert x == pytest.approx(1.01, abs=1e-12)
        assert y == pytest.approx(1.0, abs=1e-12)

    def test_pure_rotation_half_turn(self):
        x, y, heading = step(2.0, 2.0, 0.0, Setpoint(0.0, math.pi), 1.0)
        assert heading == pytest.approx(-math.pi)
        assert (x, y) == (2.0, 2.0)

    def test_arc_against_fine_integration(self):
        x, y, heading = 1.0, 1.0, 0.3
        sp = Setpoint(0.5, 1.0)
        for _ in range(100):
            x, y, heading = step(x, y, heading, sp, 0.02)
        fx, fy, fh = fine_integrate(1.0, 1.0, 0.3, 0.5, 1.0, 2.0, 1000)
        assert math.hypot(x - fx, y - fy) < 1e-3
        assert abs(normalize_heading(heading - fh)) < 1e-9

    def test_arc_length_is_commanded_distance(self):
        s = (3.0, 3.0, 0.0)
        total = 0.0
        length = 0.0
        for i in range(500):
            sp = Setpoint(0.4 + 0.001 * (i % 7), 0.8)
            prev = s
            s = step(*s, sp, 0.02)
            length += math.hypot(s[0] - prev[0], s[1] - prev[1])
            total += abs(sp.v) * 0.02
        assert length == pytest.approx(total, rel=1e-9)

    def test_each_tick_senses_from_the_pose_the_last_tick_moved_to(self):
        # fly carries the pose as one (x, y, heading) tuple from tick to tick
        for policy in POLICY_KINDS:
            cfg = RunConfig(arena=default_arena(), policy=policy, duration=10.0, seed=7)
            ticks = list(fly(cfg))
            assert ticks[0][1] == cfg.start_pose()
            for (*_, pose, _), (_, seen, *_) in zip(ticks, ticks[1:]):
                assert seen is pose and type(pose) is tuple and len(pose) == 3


@given(st.floats(-math.pi, math.pi - 1e-9), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_rotation_reversible(h0, omega):
    _, _, heading = step(1.0, 1.0, h0, Setpoint(0.0, omega), 0.02)
    _, _, heading = step(1.0, 1.0, heading, Setpoint(0.0, -omega), 0.02)
    assert abs(normalize_heading(heading - h0)) < 1e-12


@given(st.floats(allow_nan=False), st.floats(allow_nan=False), st.floats(-math.pi, math.pi),
       st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
@example(-0.0, -0.0, 0.0, 0.0, 0.0)
@settings(max_examples=200, deadline=None)
def test_a_turn_in_place_keeps_the_position_bit_for_bit(x, y, heading, v, omega):
    # no 0.0 * cos(mid) is added: it would turn a -0.0 into 0.0
    x1, y1, _ = step(x, y, heading, Setpoint(v, omega), 0.02)
    assert (x1.hex(), y1.hex()) == (x.hex(), y.hex())


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
