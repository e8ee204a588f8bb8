import copy
import itertools
import math
import random
import statistics

import pytest

from exploresim.arena import Arena, TargetObject, Vec2
from exploresim.sensing import (BEAMS, CameraModel, TofBank, TofConfig, TofFrame,
                                objects_in_fov)

from oracles import frame_values, per_beam_frame, sight_line_blocked


def _bank():
    return TofBank(TofConfig())


class TestTofSampling:
    def test_saturation_and_lateral(self, room):
        frame = _bank().sample(room, 1.0, 2.75, 0.0, None, 0.0)
        assert frame.front == 4.0  # true 5.5, saturated
        assert frame.left == pytest.approx(2.75, abs=1e-12)
        assert frame.right == pytest.approx(2.75, abs=1e-12)
        assert frame.back == pytest.approx(1.0, abs=1e-12)

    def test_near_wall(self, room):
        frame = _bank().sample(room, 6.0, 2.75, 0.0, None, 0.0)
        assert frame.front == pytest.approx(0.5, abs=1e-12)

    def test_a_refresh_moves_due_to_the_next_period(self, room):
        bank = _bank()
        assert bank.due == -math.inf
        f0 = bank.sample(room, 1.0, 2.75, 0.0, None, 0.0)
        assert f0.t == 0.0 and bank.due == pytest.approx(0.05, abs=1e-8) and bank.due < 0.05
        # a refresh late in a period is due again at the period's end
        f1 = bank.sample(room, 1.5, 2.75, 0.0, None, 0.06)
        assert f1 is not f0 and f1.t == 0.06 and f1.front == 4.0
        assert bank.due == pytest.approx(0.1, abs=1e-8) and bank.due < 0.1
        bank.sample(room, 1.5, 2.75, 0.0, None, 0.1)
        assert bank.due == pytest.approx(0.15, abs=1e-8)

    def test_refresh_cadence_over_mission(self, room):
        bank = _bank()
        stamps = []
        for i in range(9000):
            if i * 0.02 >= bank.due:
                stamps.append(bank.sample(room, 1.0, 2.75, 0.0, None, i * 0.02).t)
        assert len(stamps) == 3600  # 20 Hz over 180 s
        assert stamps[:3] == [0.0, 0.06, 0.1]  # the first tick at or after each period

    def test_deterministic_without_noise(self, room):
        a = _bank().sample(room, 2.0, 2.0, 0.7, None, 0.0)
        b = _bank().sample(room, 2.0, 2.0, 0.7, None, 0.0)
        assert a == b

    def test_noise_statistics(self):
        # front beam sees exactly 2.0 m; 1e5 refreshed samples
        arena = Arena(6.5, 5.5)
        bank = TofBank(TofConfig(noise_sigma=0.02))
        rng = random.Random(123)
        pose = (4.5, 2.75, 0.0)
        period = 1.0 / 20.0
        vals = [bank.sample(arena, *pose, rng, k * period).front for k in range(100_000)]
        assert statistics.fmean(vals) == pytest.approx(2.0, abs=1e-3)
        assert statistics.pstdev(vals) == pytest.approx(0.02, rel=0.1)

    def test_never_exceeds_max_range(self, room):
        rng = random.Random(5)
        noisy = TofBank(TofConfig(noise_sigma=0.5))
        for k in range(200):
            x = rng.uniform(0.2, 6.3)
            y = rng.uniform(0.2, 5.3)
            f = noisy.sample(room, x, y, rng.uniform(-3, 3), rng, k * 0.05)
            assert all(0.001 <= v <= 4.0 for v in (f.front, f.left, f.right, f.back))

    def test_noisy_sample_is_the_per_beam_loop(self, room):
        # four draws per refresh, front, left, right, back, each reading
        # clamped: poses by the walls clamp at 0.001, open beams at the range
        tof = TofConfig(noise_sigma=0.3)
        picks = random.Random(9)
        got_rng, want_rng = random.Random(4), random.Random(4)
        clamped = set()
        for k in range(400):
            x, y = picks.uniform(0.06, 6.44), picks.uniform(0.06, 5.44)
            heading = picks.uniform(-math.pi, math.pi)
            got = TofBank(tof).sample(room, x, y, heading, got_rng, k * 0.05)
            want = per_beam_frame(room, x, y, heading, tof, want_rng, k * 0.05)
            assert list(map(float.hex, frame_values(got))) == \
                list(map(float.hex, frame_values(want))), (x, y, heading)
            assert got_rng.getstate() == want_rng.getstate()
            clamped |= {v for v in frame_values(got)[:4] if v in (0.001, tof.max_range)}
        assert clamped == {0.001, tof.max_range}

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("beams", [c for k in range(4)
                                       for c in itertools.combinations(BEAMS[1:], k)])
    def test_an_uncast_beam_reads_as_cast_from_the_sampled_pose(self, room, beams, sigma):
        # every frame is read only after the bank has moved on to later poses
        tof = TofConfig(noise_sigma=sigma)
        picks = random.Random(9)
        got_rng, want_rng = random.Random(4), random.Random(4)
        bank = TofBank(tof, beams)
        frames = []
        for k in range(100):
            x, y = picks.uniform(0.06, 6.44), picks.uniform(0.06, 5.44)
            heading = picks.uniform(-math.pi, math.pi)
            frames.append((bank.sample(room, x, y, heading, got_rng, k * 0.05),
                           per_beam_frame(room, x, y, heading, tof, want_rng, k * 0.05)))
            assert got_rng.getstate() == want_rng.getstate()
        for k, (got, want) in enumerate(frames):
            name = BEAMS[k % 4]  # one beam read alone first, then the rest
            assert getattr(got, name).hex() == getattr(want, name).hex()
            assert list(map(float.hex, frame_values(got))) == \
                list(map(float.hex, frame_values(want))), (beams, k)

    def test_saturated_reading_stays_saturated_farther_out(self):
        big = Arena(20.0, 20.0)
        f1 = _bank().sample(big, 10.0, 10.0, 0.0, None, 0.0)
        f2 = _bank().sample(big, 9.0, 10.0, 0.0, None, 0.0)
        assert f1.front == 4.0 and f2.front == 4.0


def _arena_with(objects, obstacles=()):
    return Arena(6.5, 5.5, obstacles=obstacles, objects=objects)


class TestObjectsInFov:
    def test_object_dead_ahead(self):
        arena = _arena_with([TargetObject(1, "bottle", Vec2(3.0, 2.0))])
        seen = objects_in_fov(arena, 2.0, 2.0, 0.0, CameraModel())
        assert seen == [1]

    def test_object_behind(self):
        arena = _arena_with([TargetObject(1, "bottle", Vec2(1.0, 2.0))])
        assert objects_in_fov(arena, 2.0, 2.0, 0.0, CameraModel()) == []

    def test_object_out_of_range(self):
        arena = _arena_with([TargetObject(1, "bottle", Vec2(5.0, 2.0))])
        assert objects_in_fov(arena, 2.0, 2.0, 0.0, CameraModel()) == []

    def test_object_outside_cone(self):
        arena = _arena_with([TargetObject(1, "bottle", Vec2(3.0, 3.5))])
        # bearing 56.3 deg > fov/2 = 31.5 deg
        assert objects_in_fov(arena, 2.0, 2.0, 0.0, CameraModel()) == []

    def test_occluded_by_slab(self):
        obstacles = [(2.6, 1.8, 2.8, 2.2)]
        arena = _arena_with([TargetObject(1, "bottle", Vec2(3.4, 2.0))], obstacles)
        pose = (2.0, 2.0, 0.0)
        assert objects_in_fov(arena, *pose, CameraModel()) == []
        assert sight_line_blocked(6.5, 5.5, obstacles, 2.0, 2.0, 3.4, 2.0)

    def test_unoccluded_matches_oracle(self):
        obstacles = [(2.6, 2.3, 2.8, 2.7)]  # slab above the sight line
        arena = _arena_with([TargetObject(1, "bottle", Vec2(3.4, 2.0))], obstacles)
        pose = (2.0, 2.0, 0.0)
        assert objects_in_fov(arena, *pose, CameraModel()) == [1]
        assert not sight_line_blocked(6.5, 5.5, obstacles, 2.0, 2.0, 3.4, 2.0)

    def test_invariant_under_out_of_cone_additions(self):
        base = [TargetObject(1, "bottle", Vec2(3.0, 2.0))]
        extra = base + [TargetObject(2, "tin_can", Vec2(1.0, 4.5)),
                        TargetObject(3, "tin_can", Vec2(6.0, 5.0))]
        pose = (2.0, 2.0, 0.0)
        assert (objects_in_fov(_arena_with(base), *pose, CameraModel())
                == objects_in_fov(_arena_with(extra), *pose, CameraModel()))


def test_tof_frame_fields_order():
    f = TofFrame(1.0, 2.0, 3.0, 4.0, 0.0)
    assert (f.front, f.left, f.right, f.back) == (1.0, 2.0, 3.0, 4.0)


def test_a_frame_with_uncast_beams_equals_its_cast_frame(room):
    got = TofBank(TofConfig(), ()).sample(room, 2.0, 2.0, 0.7, None, 0.0)
    full = TofBank(TofConfig()).sample(room, 2.0, 2.0, 0.7, None, 0.0)
    values = (full.front, full.left, full.right, full.back, 0.0)
    assert isinstance(got, TofFrame)
    assert got == full and TofFrame(*values) == got and got != TofFrame(*values[:4], 1.0)
    assert repr(got) == repr(TofFrame(*values))
    for copier in (copy.copy, copy.deepcopy):  # of a frame with every side beam uncast
        copied = copier(TofBank(TofConfig(), ()).sample(room, 2.0, 2.0, 0.7, None, 0.0))
        assert type(copied) is TofFrame and copied == got
    with pytest.raises(AttributeError):
        got.side


def test_config_validation():
    with pytest.raises(ValueError):
        TofConfig(max_range=0.0)
    with pytest.raises(ValueError):
        CameraModel(fov=0.0)
