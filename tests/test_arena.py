import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim.arena import (DEFAULT_ARENA_DOC, Arena, TargetObject, Vec2,
                              default_arena, load_arena)
from exploresim.errors import FrozenError, ValidationError

from oracles import dense_ray_distance


class TestRaycast:
    def test_east_wall(self, room):
        assert room.raycast(1.0, 2.75, 0.0) == pytest.approx(5.5, abs=1e-12)

    def test_north_wall(self, room):
        assert room.raycast(3.25, 2.75, math.pi / 2) == pytest.approx(2.75, abs=1e-12)

    def test_obstacle_face(self, boxed_arena):
        d = boxed_arena.raycast(1.0, 2.5, 0.0)
        assert d == pytest.approx(1.0, abs=1e-12)
        oracle = dense_ray_distance(6.5, 5.5, boxed_arena.obstacles, 1.0, 2.5, 0.0)
        assert abs(d - oracle) < 2e-3

    @pytest.mark.parametrize("box", [(0.75, 0.0, 1.0, 0.5), (0.75, 0.5, 1.0, 1.0)],
                             ids=["top-face", "bottom-face"])
    def test_beam_along_a_face_hits_the_box(self, box):
        # face points are not free space: a beam along a face stops at the
        # box, as one that dips into it by the least angle does
        arena = Arena(1.0, 1.0, obstacles=[box])
        dip = -1e-300 if box[3] == 0.5 else 1e-300
        assert arena.raycast(0.5, 0.5, 0.0) == arena.raycast(0.5, 0.5, dip) == 0.25
        assert dense_ray_distance(1.0, 1.0, [box], 0.5, 0.5, 0.0) == pytest.approx(0.25, abs=1e-3)

    def test_never_exceeds_farthest_corner(self, room):
        rng = random.Random(7)
        for _ in range(500):
            x = rng.uniform(0.01, room.width - 0.01)
            y = rng.uniform(0.01, room.height - 0.01)
            h = rng.uniform(-math.pi, math.pi)
            far = max(math.hypot(cx - x, cy - y)
                      for cx in (0.0, room.width) for cy in (0.0, room.height))
            assert room.raycast(x, y, h) <= far + 1e-9

    def test_hit_point_pulled_back_is_free(self, boxed_arena):
        rng = random.Random(11)
        for _ in range(500):
            x = rng.uniform(0.01, 6.49)
            y = rng.uniform(0.01, 5.49)
            if not boxed_arena.in_free_space(x, y):
                continue
            h = rng.uniform(-math.pi, math.pi)
            d = boxed_arena.raycast(x, y, h)
            assert boxed_arena.in_free_space(x + (d - 1e-3) * math.cos(h),
                                             y + (d - 1e-3) * math.sin(h))

    def test_occlusion_monotone(self):
        plain = Arena(6.5, 5.5)
        rng = random.Random(13)
        for _ in range(60):
            x0 = rng.uniform(0.5, 5.0)
            y0 = rng.uniform(0.5, 4.0)
            boxed = Arena(6.5, 5.5, obstacles=[(x0, y0, x0 + 1.0, y0 + 1.0)])
            for _ in range(20):
                x = rng.uniform(0.01, 6.49)
                y = rng.uniform(0.01, 5.49)
                if not boxed.in_free_space(x, y):
                    continue
                h = rng.uniform(-math.pi, math.pi)
                assert boxed.raycast(x, y, h) <= plain.raycast(x, y, h) + 1e-12

    def test_matches_dense_oracle(self):
        rng = random.Random(42)
        for _ in range(10):
            boxes = []
            for _ in range(rng.randint(0, 4)):
                bx = rng.uniform(0.3, 5.0)
                by = rng.uniform(0.3, 4.0)
                boxes.append((bx, by, bx + rng.uniform(0.2, 1.2), by + rng.uniform(0.2, 1.2)))
            arena = Arena(6.5, 5.5, obstacles=boxes)
            done = 0
            while done < 30:
                x = rng.uniform(0.01, 6.49)
                y = rng.uniform(0.01, 5.49)
                if not arena.in_free_space(x, y):
                    continue
                h = rng.uniform(-math.pi, math.pi)
                oracle = dense_ray_distance(6.5, 5.5, boxes, x, y, h)
                assert abs(arena.raycast(x, y, h) - oracle) < 2e-3
                done += 1


class TestFreeSpace:
    def test_center_free(self, room):
        assert room.in_free_space(3.25, 2.75)

    def test_outside_room(self, room):
        assert not room.in_free_space(-0.1, 2.0)

    def test_inside_obstacle(self, boxed_arena):
        assert not boxed_arena.in_free_space(2.5, 2.5)

    def test_boundary_not_free(self, room):
        assert not room.in_free_space(0.0, 2.0)
        assert not room.in_free_space(6.5, 2.0)


class TestLoadArena:
    def test_default_document(self):
        arena = load_arena(DEFAULT_ARENA_DOC)
        assert arena.width == 6.5 and arena.height == 5.5
        assert len(arena.objects) == 6
        assert sorted(o.cls for o in arena.objects).count("bottle") == 3
        assert sorted(o.cls for o in arena.objects).count("tin_can") == 3

    def test_json_text_round_trip(self):
        arena = load_arena(json.dumps(DEFAULT_ARENA_DOC))
        assert len(arena.objects) == 6

    def test_object_inside_obstacle_rejected(self):
        doc = {"width": 6.5, "height": 5.5,
               "obstacles": [{"min": [2, 2], "max": [3, 3]}],
               "objects": [{"id": 1, "class": "bottle", "pos": [2.5, 2.5]}]}
        with pytest.raises(ValidationError) as err:
            load_arena(doc)
        assert "objects[0].pos" in str(err.value)

    def test_zero_objects_valid(self):
        arena = load_arena({"width": 6.5, "height": 5.5})
        assert arena.objects == ()

    def test_missing_width(self):
        with pytest.raises(ValidationError) as err:
            load_arena({"height": 5.5})
        assert "width" in str(err.value)

    def test_duplicate_ids(self):
        doc = {"width": 4.0, "height": 4.0,
               "objects": [{"id": 1, "class": "bottle", "pos": [1, 1]},
                           {"id": 1, "class": "tin_can", "pos": [2, 2]}]}
        with pytest.raises(ValidationError) as err:
            load_arena(doc)
        assert "objects[1].id" in str(err.value)

    def test_obstacle_outside_room(self):
        doc = {"width": 4.0, "height": 4.0,
               "obstacles": [{"min": [3.5, 1.0], "max": [4.5, 2.0]}]}
        with pytest.raises(ValidationError) as err:
            load_arena(doc)
        assert "obstacles[0]" in str(err.value)

    def test_inverted_obstacle_corners(self):
        with pytest.raises(ValidationError):
            Arena(4.0, 4.0, obstacles=[(2.0, 2.0, 1.0, 3.0)])

    def test_bad_class(self):
        doc = {"width": 4.0, "height": 4.0,
               "objects": [{"id": 1, "class": "chair", "pos": [1, 1]}]}
        with pytest.raises(ValidationError):
            load_arena(doc)


@given(st.floats(0.02, 6.48), st.floats(0.02, 5.48), st.floats(-math.pi, math.pi))
@settings(max_examples=200, deadline=None)
def test_raycast_finite_and_positive(x, y, h):
    arena = default_arena()
    d = arena.raycast(x, y, h)
    assert math.isfinite(d) and d > 0.0


def test_object_invariants():
    with pytest.raises(ValidationError):
        Arena(4.0, 4.0, objects=[TargetObject(1, "bottle", Vec2(1.0, 1.0), radius=0.0)])


def test_a_room_is_frozen():
    room = default_arena()
    with pytest.raises(FrozenError, match="cannot assign to field 'width'"):
        room.width = 1e300
    assert room == default_arena()


@pytest.mark.parametrize("box", [(1, 2, 3), None, ("1", 1, 2, 2), (True, 1, 2, 2),
                                 (1.0, 1.0, math.nan, 2.0)])
def test_a_malformed_box_names_obstacles(box):
    with pytest.raises(ValidationError) as err:
        Arena(6.5, 5.5, obstacles=[box])
    assert err.value.path == "obstacles"
    assert err.value.message.startswith("must be a list, each [x0, y0, x1, y1], four finite")


def test_an_object_given_a_plain_point_sits_in_a_room():
    room = Arena(6.5, 5.5, objects=[TargetObject(1, "bottle", (2, 2.5))])
    pos = room.objects[0].pos
    assert type(pos) is Vec2 and (pos.x, pos.y) == (2.0, 2.5)
    assert room == Arena(6.5, 5.5, objects=(TargetObject(1, "bottle", Vec2(2.0, 2.5)),))
    with pytest.raises(ValidationError) as err:
        Arena(6.5, 5.5, objects=[(1, "bottle", (2, 2.5))])
    assert (err.value.path, err.value.message) == (
        "objects", "must be a list, each a TargetObject, got [(1, 'bottle', (2, 2.5))]")
