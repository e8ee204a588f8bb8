import inspect
import math
import types
from collections import namedtuple

import pytest

from exploresim import harness
from exploresim.arena import Arena, default_arena
from exploresim.detection import DetectionLedger
from exploresim.harness import RunConfig, fly
from exploresim.policies import (POLICY_KINDS, PolicyConfig, PseudoRandomState,
                                 RotateMeasureState, SpiralState,
                                 WallFollowState, _copy, initial_state, policy_step,
                                 pseudo_random_step, rotate_measure_step,
                                 spiral_step, wall_following_step)
from exploresim.vehicle import normalize_heading

from oracles import Frame

CFG = PolicyConfig()

Tick = namedtuple("Tick", "t seen frame ps sp pose blocked")


def drive(arena, kind, cfg, start, duration, seed=0):
    """The mission's control task, tick by tick; fails on a collision."""
    run = RunConfig(arena=arena, policy=kind, policy_cfg=cfg, start=start,
                    duration=duration, seed=seed)
    trace = [Tick(*tick) for tick in fly(run)]
    x, y, _ = trace[-1].pose
    assert not trace[-1].blocked, f"collision at t={trace[-1].t:.2f} ({x:.2f}, {y:.2f})"
    return trace


def frame(front=4.0, left=4.0, right=4.0, back=4.0, t=0.0):
    return Frame(front, left, right, back, t)


class StubRng:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestPseudoRandom:
    def test_cruises_when_clear(self):
        ps, sp = pseudo_random_step(PseudoRandomState(), frame(front=1.5), 0.0,
                                    0.02, CFG, StubRng(0.5))
        assert ps.mode == "cruise"
        assert (sp.v, sp.omega) == (0.5, 0.0)

    def test_trigger_draws_midpoint_turn(self):
        # u = 0.5 lands on the midpoint of [pi/2, 3pi/2): a half turn
        ps, sp = pseudo_random_step(PseudoRandomState(), frame(front=0.8), 0.3,
                                    0.02, CFG, StubRng(0.5))
        assert ps.mode == "turning"
        assert normalize_heading(ps.target_heading - 0.3) == pytest.approx(-math.pi)
        assert sp.v == 0.0 and abs(sp.omega) == CFG.turn_rate

    def test_turn_exit_emits_cruise(self):
        ps = PseudoRandomState(mode="turning", target_heading=1.0)
        ps, sp = pseudo_random_step(ps, frame(front=3.0), 1.0 + 0.01, 0.02,
                                    CFG, StubRng(0.0))
        assert ps.mode == "cruise"
        assert (sp.v, sp.omega) == (0.5, 0.0)

    def test_turn_magnitude_always_at_least_quarter_turn(self):
        for u in (0.0, 0.1, 0.37, 0.5, 0.73, 0.999):
            for heading in (-3.0, -1.0, 0.0, 0.8, 2.9):
                ps, _ = pseudo_random_step(PseudoRandomState(), frame(front=0.5),
                                           heading, 0.02, CFG, StubRng(u))
                turn = abs(normalize_heading(ps.target_heading - heading))
                assert turn >= math.pi / 2 - 1e-12


class TestWallFollowing:
    def test_proportional_pull_toward_standoff(self):
        ps = WallFollowState(mode="follow", acquired=True)
        ps, sp = wall_following_step(ps, frame(front=3.0, left=0.7), 0.0, 0.02, CFG, None)
        assert sp.omega == pytest.approx(1.5 * (0.7 - 0.5))
        assert sp.v == CFG.cruise_speed

    def test_on_track_is_straight(self):
        ps = WallFollowState(mode="follow", acquired=True)
        ps, sp = wall_following_step(ps, frame(front=3.0, left=0.5), 0.0, 0.02, CFG, None)
        assert sp.omega == 0.0

    def test_corner_turns_toward_larger_side(self):
        ps = WallFollowState(mode="follow", acquired=True)
        ps, sp = wall_following_step(ps, frame(front=0.55, left=0.5, right=3.2),
                                     0.0, 0.02, CFG, None)
        assert ps.mode == "corner"
        assert normalize_heading(ps.target_heading - 0.0) == pytest.approx(-math.pi / 2)
        assert sp.v == 0.0 and sp.omega == -CFG.turn_rate

    @pytest.mark.parametrize("side, turn", [("left", -1.0), ("right", 1.0)])
    def test_corner_with_equal_sides_turns_away_from_followed_side(self, side, turn):
        ps = WallFollowState(mode="follow", acquired=True)
        ps, sp = wall_following_step(ps, frame(front=0.55, left=1.2, right=1.2), 0.0, 0.02,
                                     CFG.replace(follow_side=side), None)
        assert ps.mode == "corner"
        assert normalize_heading(ps.target_heading) == pytest.approx(turn * math.pi / 2)
        assert sp.v == 0.0 and sp.omega == turn * CFG.turn_rate

    def test_right_following_sign(self):
        ps = WallFollowState(mode="follow", acquired=True)
        ps, sp = wall_following_step(ps, frame(front=3.0, right=0.7), 0.0, 0.02,
                                     CFG.replace(follow_side="right"), None)
        assert sp.omega == pytest.approx(-1.5 * (0.7 - 0.5))

    def test_acquire_cruises_then_turns_away_from_followed_side(self):
        ps = WallFollowState()
        ps, sp = wall_following_step(ps, frame(front=3.0), 0.0, 0.02, CFG, None)
        assert ps.mode == "acquire" and sp.v == CFG.cruise_speed
        ps, sp = wall_following_step(ps, frame(front=0.55), 0.0, 0.02, CFG, None)
        assert ps.mode == "corner"
        assert normalize_heading(ps.target_heading) == pytest.approx(-math.pi / 2)

    def test_equilibrium_holds_on_straight_segments(self, room):
        # once the side reading settles within 1 cm it stays within 2 cm
        # until the next corner
        trace = drive(room, "wall-following", CFG, (1.0, 5.0, 0.0), 180.0)
        settled = False
        for tick in trace:
            if tick.ps.mode != "follow":
                settled = False
                continue
            err = abs(tick.frame.left - CFG.wall_standoff)
            if settled:
                assert err < 0.02, f"tracking broke at t={tick.t:.2f} (err {err:.3f})"
            elif err < 0.01:
                settled = True

    def test_stays_near_walls_from_track_start(self, room):
        trace = drive(room, "wall-following", CFG, (1.0, 5.0, 0.0), 180.0)
        for tick in trace:
            x, y, _ = tick.seen
            wall_dist = min(x, y, room.width - x, room.height - y)
            assert wall_dist < 1.0, f"left the perimeter band at t={tick.t:.2f}"


class TestSpiral:
    def test_fresh_state_ring(self, room):
        ps = initial_state("spiral", CFG, 0.0, room)
        assert ps.ring_offset == 0.5
        assert ps.direction == "in"
        assert ps.ring_limit == pytest.approx(5.5 / 2 - 0.05)

    def test_ring_sequence_is_palindromic(self, room):
        # ring offsets per lap: 0.5 1.0 1.5 2.0 2.5 | 2.5 2.0 1.5 1.0 0.5 | 0.5 ...
        trace = drive(room, "spiral", CFG, (3.25, 2.75, 0.0), 420.0)
        rings = [trace[0].ps.ring_offset]
        for tick in trace:
            if tick.ps.ring_offset != rings[-1]:
                rings.append(tick.ps.ring_offset)
        cycle = [1.0, 1.5, 2.0, 2.5, 2.0, 1.5, 1.0, 0.5]
        expected = [0.5] + cycle * 3
        assert rings == expected[:len(rings)]
        assert len(rings) >= 10, "run too short to observe the reversal"
        assert max(rings) == 2.5

    def test_direction_flips_out_at_peak(self, room):
        trace = drive(room, "spiral", CFG, (3.25, 2.75, 0.0), 420.0)
        directions = {}
        for tick in trace:
            directions.setdefault(round(tick.ps.ring_offset, 3), set()).add(tick.ps.direction)
        assert "out" in directions[2.5]

    def test_lap_needs_four_corners(self, room):
        trace = drive(room, "spiral", CFG, (3.25, 2.75, 0.0), 60.0)
        first_change = next(i for i, t in enumerate(trace)
                            if t.ps.ring_offset != 0.5)
        corners = 0
        prev_mode = trace[0].ps.mode
        for tick in trace[:first_change + 1]:
            if prev_mode == "corner" and tick.ps.mode == "follow" and tick.ps.acquired:
                corners += 1
            prev_mode = tick.ps.mode
        # four post-acquisition corner exits complete the first lap
        # (the acquisition turn itself does not count)
        assert corners == 5  # acquisition exit + 4 lap corners

    def test_state_is_wall_following_subclass(self):
        assert issubclass(SpiralState, WallFollowState)

    def test_lap_edge_without_refresh_tracks_the_new_ring(self):
        # the fourth corner of a lap ends on a frame that the next tick holds
        tof = frame(front=4.0, left=0.8, t=1.0)
        ps = SpiralState(mode="corner", acquired=True, target_heading=0.0,
                         ring_offset=0.5, corners_done=3)
        ps, sp = spiral_step(ps, tof, 0.0, 0.02, CFG, None)
        assert (ps.ring_offset, ps.corners_done) == (1.0, 0)
        assert sp.omega == pytest.approx(CFG.k_wall * (0.8 - 0.5))  # tracked at the old ring
        _, sp = spiral_step(ps, tof, 0.0, 0.02, CFG, None)
        scratch = SpiralState(mode="follow", acquired=True, ring_offset=1.0)
        _, want = spiral_step(scratch, tof, 0.0, 0.02, CFG, None)
        assert sp == want
        assert sp.omega == pytest.approx(CFG.k_wall * (0.8 - 1.0))


class TestRotateMeasure:
    def test_scan_records_exactly_eight(self, room):
        trace = drive(room, "rotate-and-measure", CFG, (3.25, 2.75, 0.0), 60.0)
        # table lengths within each scan phase never exceed 8
        lengths = [len(t.ps.scan_table) for t in trace if t.ps.mode == "scan"]
        assert max(lengths) == 8
        # every completed scan recorded all eight entries
        prev = trace[0]
        for tick in trace[1:]:
            if prev.ps.mode == "scan" and tick.ps.mode == "travel":
                assert len(prev.ps.scan_table) == 8
            prev = tick

    def test_argmax_selects_freest_heading(self):
        table7 = (0.6, 1.2, 4.0, 2.0, 1.1, 0.9, 3.3)
        ps = RotateMeasureState(mode="scan", scan_start=0.0, prev_heading=0.0,
                                rotated=7 * math.pi / 4, scan_table=table7)
        ps, _ = rotate_measure_step(ps, frame(front=2.8), 0.0, 0.02, CFG, None)
        assert ps.scan_table == table7 + (2.8,)
        assert ps.leg_heading == pytest.approx(normalize_heading(math.pi / 2))
        assert ps.leg_len == pytest.approx(2.0)  # min(2.0, 4.0 - 0.5)

    def test_tie_breaks_to_lowest_index(self):
        table7 = (2.0,) * 7
        ps = RotateMeasureState(mode="scan", scan_start=1.0, prev_heading=1.0,
                                rotated=7 * math.pi / 4, scan_table=table7)
        ps, _ = rotate_measure_step(ps, frame(front=2.0), 1.0, 0.02, CFG, None)
        assert ps.leg_heading == pytest.approx(1.0)

    def test_short_reading_shortens_leg(self):
        table7 = (0.6,) * 7
        ps = RotateMeasureState(mode="scan", scan_start=0.0, prev_heading=0.0,
                                rotated=7 * math.pi / 4, scan_table=table7)
        ps, _ = rotate_measure_step(ps, frame(front=1.3), 0.0, 0.02, CFG, None)
        assert ps.leg_len == pytest.approx(1.3 - 0.5)

    def test_travel_aborts_on_front_trigger(self):
        ps = RotateMeasureState(mode="travel", leg_heading=0.0, leg_len=2.0,
                                leg_travelled=0.3)
        ps, sp = rotate_measure_step(ps, frame(front=0.9), 0.0, 0.02, CFG, None)
        assert ps.mode == "scan" and sp.v == 0.0

    def test_travel_leg_odometry(self):
        ps = RotateMeasureState(mode="travel", leg_heading=0.0, leg_len=2.0)
        ps, sp = rotate_measure_step(ps, frame(front=4.0), 0.0, 0.02, CFG, None)
        assert ps.leg_travelled == pytest.approx(CFG.cruise_speed * 0.02)
        assert sp.v == CFG.cruise_speed


class TestDispatchAndInvariants:
    def test_dispatch_all_kinds_total(self, room):
        f = frame(front=2.0, left=1.0, right=3.0)
        for kind in POLICY_KINDS:
            ps = initial_state(kind, CFG, 0.0, room)
            ps, sp = policy_step(kind, ps, f, 0.0, 0.02, CFG, StubRng(0.3))
            assert math.isfinite(sp.v) and math.isfinite(sp.omega)
            assert abs(sp.v) <= CFG.cruise_speed + 1e-12
            assert abs(sp.omega) <= CFG.turn_rate + 1e-12

    def test_setpoints_always_clamped(self, room):
        for kind in POLICY_KINDS:
            start = (1.0, 5.0, 0.0) if kind in ("wall-following", "spiral") \
                else (3.25, 2.75, 0.0)
            for tick in drive(room, kind, CFG, start, 30.0, seed=3):
                assert abs(tick.sp.v) <= CFG.cruise_speed + 1e-12
                assert abs(tick.sp.omega) <= CFG.turn_rate + 1e-12

    def test_step_functions_do_not_mutate_input(self, room, monkeypatch):
        ps = PseudoRandomState()
        before = repr(ps)
        pseudo_random_step(ps, frame(front=0.5), 0.0, 0.02, CFG, StubRng(0.2))
        assert repr(ps) == before
        # a follow state that already read this frame's time, but holds nothing
        ps = WallFollowState(mode="follow", acquired=True, prev_frame=frame(left=0.6, t=1.0))
        before = repr(ps)
        wall_following_step(ps, frame(left=0.6, t=1.0), 0.0, 0.02, CFG, None)
        assert repr(ps) == before
        # every step of a 60 s flight of each kind, the held follow set-points too;
        # each in-place turn is one of the config's two held turns, and each
        # corner step starts with the wall-tracking fields clear
        kinds, held, turned, cornered = [], set(), set(), set()

        def checked(kind, ps, tof, heading, dt, cfg, rng):
            before = repr(ps)
            if ps.mode == "corner":
                assert (ps.prev_frame, ps.deriv, ps.held_sp) == (None, 0.0, None), \
                    f"{kind} corner step with tracking state"
                cornered.add(kind)
            out = policy_step(kind, ps, tof, heading, dt, cfg, rng)
            assert repr(ps) == before, f"{kind} step changed its input"
            kinds.append(kind)
            if out[0] is ps and getattr(ps, "held_sp", None) is not None:
                held.add(kind)
            sp = out[1]
            if sp.v == 0.0:
                assert sp is cfg.turns[0] or sp is cfg.turns[1], f"{kind} built a turn"
                turned.add(kind)
            return out

        monkeypatch.setattr(harness, "policy_step", checked)
        for kind in POLICY_KINDS:
            start = (1.0, 5.0, 0.0) if kind in ("wall-following", "spiral") \
                else (3.25, 2.75, 0.0)
            drive(room, kind, CFG, start, 60.0)
        assert kinds == [kind for kind in POLICY_KINDS for _ in range(3000)]
        assert held == cornered == {"wall-following", "spiral"}
        assert turned == set(POLICY_KINDS)

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_identical_seed_identical_sequences(self, room, kind):
        start = (1.0, 5.0, 0.0) if kind in ("wall-following", "spiral") \
            else (3.25, 2.75, 0.0)
        a = drive(room, kind, CFG, start, 30.0, seed=9)
        b = drive(room, kind, CFG, start, 30.0, seed=9)
        assert [(t.sp.v, t.sp.omega) for t in a] == [(t.sp.v, t.sp.omega) for t in b]
        assert [t.seen for t in a] == [t.seen for t in b]


WALL_FIELDS = ("mode", "acquired", "target_heading", "prev_frame", "deriv", "held_sp")
STATE_FIELDS = {
    PseudoRandomState: ("mode", "target_heading"),
    WallFollowState: WALL_FIELDS,
    SpiralState: (*WALL_FIELDS, "ring_offset", "direction", "corners_done", "ring_limit"),
    RotateMeasureState: ("mode", "scan_start", "prev_heading", "rotated", "scan_table",
                         "leg_heading", "leg_len", "leg_travelled"),
    DetectionLedger: ("first_seen", "frames_fired", "frames_with_target"),
}


class TestStates:
    """The policy states are hand-written slotted classes: ``_copy`` must
    carry every slot, the inherited ones of a spiral state too."""

    @staticmethod
    def slots(cls) -> set[str]:
        return {name for c in cls.__mro__ for name, value in vars(c).items()
                if isinstance(value, types.MemberDescriptorType)}

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_copy_is_a_new_equal_state(self, room, kind):
        cls = initial_state(kind, CFG, 0.3, room).__class__
        names = self.slots(cls)
        values = [object() for _ in names]  # a constructor that swaps two fields fails
        ps = cls(*values)
        copy = _copy(ps)
        assert copy is not ps and copy.__class__ is cls
        assert copy == ps
        assert [getattr(copy, name) for name in cls.FIELDS] == values
        assert set(cls.FIELDS) == names
        if kind == "spiral":
            assert set(WallFollowState.FIELDS) < names
        copy.mode = "other"
        assert copy != ps and ps.mode is values[0]

    @pytest.mark.parametrize("cls", STATE_FIELDS, ids=lambda cls: cls.__name__)
    def test_fields_are_the_positional_init_in_order(self, cls):
        # _copy rebuilds a state as cls(*values of FIELDS)
        params = tuple(inspect.signature(cls.__init__).parameters)[1:]
        assert cls.FIELDS == params == STATE_FIELDS[cls]

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_takes_no_unknown_attribute(self, room, kind):
        ps = initial_state(kind, CFG, 0.3, room)
        with pytest.raises(AttributeError):
            ps.side = "left"


def test_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(cruise_speed=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(follow_side="up")
