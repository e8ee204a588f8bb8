import hashlib
import io
import math
import os
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exploresim import harness, policies
from exploresim.arena import (DEFAULT_ARENA_DOC, Arena, TargetObject, Vec2, default_arena,
                              load_arena)
from exploresim.cli import main
from exploresim.detection import DETECTORS, DetectorModel
from exploresim.errors import FrozenError, SimError, ValidationError
from exploresim.harness import (RunConfig, SweepSpec, aggregate,
                                aggregate_detection, flight_key, fly, run_batch,
                                run_seed_for, run_single, run_sweep)
from exploresim.policies import POLICY_KINDS, PolicyConfig, policy_draws
from exploresim.metrics import OccupancyGrid, dwell_matrix_csv
from exploresim.report import (check_heatmap_csv, coverage_series_csv,
                               parse_trajectory)
from exploresim.seeding import derive_seed
from exploresim.sensing import BEAMS, MOUNT_ANGLES, CameraModel, TofBank, TofConfig
from exploresim.vehicle import DEFAULT_DRONE_RADIUS
from oracles import (coverage_series, dense_ray_distance, detection_ledger, flight_grid,
                     frame_values, per_beam_frame, per_tick_flight)


def make_cfg(**kw):
    base = dict(arena=default_arena(), policy="pseudo-random",
                policy_cfg=PolicyConfig(cruise_speed=0.5), seed=42)
    base.update(kw)
    return RunConfig(**base)


def logged(cfg):
    """``run_single(cfg)`` and the lines of the trajectory log it wrote."""
    log = io.StringIO()
    res = run_single(cfg, log)
    return res, log.getvalue().splitlines(keepends=True)


BOXED_ROOM = dict(DEFAULT_ARENA_DOC, obstacles=[{"min": [1.5, 1.5], "max": [2.2, 2.2]},
                                               {"min": [4.5, 3.5], "max": [5.0, 4.2]}])
BOXED = load_arena(BOXED_ROOM)


def test_fly_samples_the_tof_bank_only_when_due(monkeypatch):
    # a 20 Hz bank under a 50 Hz loop refreshes on 3600 of 9000 ticks; fly
    # holds each frame until the next refresh, as the per-tick oracle does
    for tof in (TofConfig(), TofConfig(noise_sigma=0.02)):
        cfg = make_cfg(tof=tof)
        calls = []
        sample = TofBank.sample

        def counted(bank, arena, x, y, heading, rng, t):
            calls.append(t)
            return sample(bank, arena, x, y, heading, rng, t)

        monkeypatch.setattr(TofBank, "sample", counted)
        ticks = list(fly(cfg))
        monkeypatch.undo()
        assert len(ticks) == 9000 and len(calls) == 3600
        frames = [frame for _, _, frame, *_ in ticks]
        assert len({id(frame) for frame in frames}) == 3600
        assert frames == [frame for _, _, frame, *_ in per_tick_flight(cfg)]


@pytest.mark.parametrize("noise", [0.0, 0.02])
@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_a_refresh_casts_the_front_beam_and_the_beams_its_policy_reads(monkeypatch, policy,
                                                                      noise):
    # a refresh casts front and the beams its policy reads on every step,
    # and draws four Gaussians with noise, cast or not; between refreshes
    # a wall tracker's frame casts its far side once, on the first read,
    # from the refresh's pose, and no frame casts another beam
    for side in ("left", "right"):
        check_refresh_casts(monkeypatch, policy, noise, side)


def check_refresh_casts(monkeypatch, policy, noise, side):
    policy_cfg = PolicyConfig(follow_side=side)
    tracker = policy in ("wall-following", "spiral")
    beams = policies.policy_beams(policy, policy_cfg)
    assert beams == ((side,) if tracker else ())
    mounts = [MOUNT_ANGLES[BEAMS.index(name)] for name in ("front", *beams)]
    far = MOUNT_ANGLES[BEAMS.index("right" if side == "left" else "left")]
    cfg = RunConfig(arena=BOXED, policy=policy, policy_cfg=policy_cfg,
                    tof=TofConfig(noise_sigma=noise), duration=60.0, seed=7)
    casts, refreshes = [], []  # casts since the last refresh; (pose, frame) of each
    raycast, sample = Arena.raycast, TofBank.sample

    def counted_raycast(arena, ox, oy, heading):
        casts.append((ox, oy, heading))
        return raycast(arena, ox, oy, heading)

    def checked_sample(bank, arena, x, y, heading, rng, t):
        drawn = random.Random()
        drawn.setstate(rng.getstate())
        for _ in range(4 if noise else 0):
            drawn.gauss(0.0, noise)
        casts.clear()
        frame = sample(bank, arena, x, y, heading, rng, t)
        assert frame.t == t and casts == [(x, y, heading + mount) for mount in mounts]
        assert rng.getstate() == drawn.getstate()
        refreshes.append(((x, y, heading), frame))
        casts.clear()
        return frame

    monkeypatch.setattr(Arena, "raycast", counted_raycast)
    monkeypatch.setattr(TofBank, "sample", checked_sample)
    deferred = set()  # the refreshes whose frame cast its far side
    for _ in fly(cfg):
        if casts:
            (x, y, heading), _ = refreshes[-1]
            assert tracker and casts == [(x, y, heading + far)]
            assert len(refreshes) not in deferred
            deferred.add(len(refreshes))
            casts.clear()
    monkeypatch.undo()
    assert len(refreshes) == 1200
    assert bool(deferred) == tracker
    # every frame reads the floats of a frame cast a beam at a time
    rng = random.Random(derive_seed(cfg.seed, "noise"))
    for pose, frame in refreshes:
        assert frame == per_beam_frame(BOXED, *pose, cfg.tof, rng, frame.t)


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_fly_steps_on_a_new_set_point_or_heading_and_tests_the_disc_on_a_move(
        monkeypatch, policy):
    # a tick steps the vehicle when its set-point object or its heading is
    # not the last tick's; it tests the airframe disc only on a tick that
    # moves, once its travel could reach a wall or box: every tick that the
    # oracle, which tests each tick, finds blocked is tested, and fly's
    # poses and flags are the oracle's
    for arena in (default_arena(), BOXED):
        check_steps_and_disc_tests(monkeypatch, policy, arena)


def check_steps_and_disc_tests(monkeypatch, policy, arena):
    cfg = RunConfig(arena=arena, policy=policy, seed=7)
    oracle = list(per_tick_flight(cfg))
    calls = []
    step, disc_blocked = harness.step, Arena.disc_blocked
    monkeypatch.setattr(harness, "step", lambda *a: calls.append("step") or step(*a))
    monkeypatch.setattr(Arena, "disc_blocked",
                        lambda *a: calls.append("disc") or disc_blocked(*a))
    flown = []
    for tick in fly(cfg):
        flown.append((tick, calls[:]))
        calls.clear()
    monkeypatch.undo()
    assert len(flown) == len(oracle)
    last_sp = last_heading = None
    moves = tests = 0
    for ((_, seen, _, _, sp, pose, blocked), made), want in zip(flown, oracle):
        stepped = sp is not last_sp or seen[2] != last_heading
        moved = pose[:2] != seen[:2]
        assert made[:stepped] == ["step"] * stepped
        assert made[stepped:] in ([], ["disc"] * moved)
        tested = made[stepped:] == ["disc"]
        assert (pose, blocked) == (want[5], want[6])
        assert tested or not want[6]
        moves += moved
        tests += tested
        last_sp, last_heading = sp, seen[2]
    # the two golden boxed cases that collide
    assert oracle[-1][6] == (arena is BOXED and policy in ("pseudo-random", "spiral"))
    assert tests * 10 < moves  # most moves are far from every wall


class TestRunConfig:
    def test_checked_when_replaced(self):
        with pytest.raises(ValidationError) as err:
            make_cfg().replace(duration=-1.0)
        assert err.value.path == "duration"
        with pytest.raises(ValidationError) as err:
            make_cfg().replace(start=(-1.0, 2.0, 0.0))
        assert err.value.path == "run.start"

    def test_frozen(self):
        cfg = make_cfg()
        with pytest.raises(FrozenError):
            cfg.seed = 1

    @pytest.mark.parametrize("field, value, message", [
        ("arena", None, "must be an Arena, got None"),
        ("policy_cfg", {"cruise_speed": 0.5}, "must be a PolicyConfig, got {'cruise_speed': 0.5}"),
        ("tof", None, "must be a TofConfig, got None"),
        ("camera", None, "must be a CameraModel, got None"),
        ("detector", "ssd-1.0", "must be null or a DetectorModel, got 'ssd-1.0'"),
    ])
    def test_validation(self, field, value, message):
        # a field that holds a model is checked when the config is made, not
        # when the flight first reads it
        with pytest.raises(ValidationError) as err:
            make_cfg(**{field: value, "duration": 1.0})
        assert (err.value.path, err.value.message) == (field, message)


class TestRunSingle:
    def test_deterministic_digest(self):
        a = run_single(make_cfg())
        b = run_single(make_cfg())
        assert a.digest == b.digest
        assert a.coverage == b.coverage
        assert 0.0 < a.coverage <= 1.0

    def test_dwell_conservation(self):
        res = run_single(make_cfg())
        assert not res.collision.occurred
        assert res.grid.total_dwell() == pytest.approx(180.0, abs=1e-6)
        assert res.elapsed == pytest.approx(180.0, abs=1e-6)

    def test_trajectory_log_shape(self):
        _, lines = logged(make_cfg(duration=10.0))
        rows = list(parse_trajectory(lines))
        assert len(rows) == 501  # 500 control ticks + terminal state row
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(10.0)
        assert rows[-1][4] == 0.0 and rows[-1][5] == 0.0

    def test_coverage_recomputable_from_log(self):
        for policy, speed in (("pseudo-random", 0.5), ("spiral", 1.0)):
            res, lines = logged(make_cfg(policy=policy,
                                         policy_cfg=PolicyConfig(cruise_speed=speed)))
            _, replay = coverage_series(lines, 6.5, 5.5)
            assert replay.coverage() == res.coverage
            assert replay.dwell == pytest.approx(res.grid.dwell, abs=1e-9)

    @pytest.mark.parametrize("policy", ["pseudo-random", "wall-following"])
    def test_flown_ticks_are_the_logged_mission(self, policy):
        # with ranging noise on, the policy and noise streams must stay apart
        # exactly as in the mission, or the traced ticks leave its trajectory
        cfg = make_cfg(policy=policy, seed=3, duration=30.0,
                       tof=TofConfig(noise_sigma=0.02))
        rows = list(parse_trajectory(logged(cfg)[1]))
        ticks = list(fly(cfg))
        assert len(ticks) == len(rows) - 1
        for row, (t, seen, _, _, sp, _, _) in zip(rows, ticks):
            values = (t, *seen, sp.v, sp.omega)
            assert row == tuple(float(f"{v:.6f}") for v in values)

    def test_wall_following_stays_out_of_the_core(self):
        # started on the perimeter track, the inner 9x7 cell core stays dark
        res = run_single(make_cfg(policy="wall-following", start=(1.0, 5.0, 0.0)))
        grid = res.grid
        for row in range(2, 9):
            for col in range(2, 11):
                assert grid.dwell_at(col, row) == 0.0
        assert not res.collision.occurred

    def test_invalid_start_pose(self):
        with pytest.raises(SimError):
            run_single(make_cfg(start=(-1.0, 2.0, 0.0)))
        boxed = Arena(6.5, 5.5, obstacles=[(2.0, 2.0, 3.0, 3.0)])
        with pytest.raises(SimError):
            run_single(make_cfg(arena=boxed, start=(2.5, 2.5, 0.0)))

    def test_collision_truncates_and_flags(self):
        # a trigger distance below the airframe radius guarantees a wall hit
        cfg = make_cfg(policy_cfg=PolicyConfig(cruise_speed=0.5, trigger_dist=0.011))
        res = run_single(cfg)
        assert res.collision.occurred
        assert res.elapsed < 180.0
        assert res.collision.time == pytest.approx(res.elapsed)
        assert res.grid.total_dwell() == pytest.approx(res.elapsed, abs=1e-6)
        assert res.energy["total"] == pytest.approx(8.02 * res.elapsed, rel=1e-9)

    def test_detector_runs_attach_ledger(self):
        res = run_single(make_cfg(detector=DETECTORS["ssd-1.0"]))
        assert res.ledger is not None
        assert res.detection_rate == len(res.ledger.first_seen) / 6

    def test_result_survives_pickling(self):
        # run_batch with more than one worker ships each result back by pickle
        res = run_single(make_cfg(detector=DETECTORS["ssd-1.0"], duration=30.0))
        back = pickle.loads(pickle.dumps(res))
        assert back.ledger == res.ledger and back.ledger is not res.ledger
        assert res.ledger.first_seen and res.ledger.frames_fired == 48
        assert back._replace(grid=None) == res._replace(grid=None)
        assert (back.grid.dwell, back.grid.coverage()) == (res.grid.dwell, res.grid.coverage())

    def test_no_objects_means_no_rate(self):
        empty = load_arena({"width": 6.5, "height": 5.5})
        res = run_single(make_cfg(arena=empty, detector=DETECTORS["ssd-1.0"]))
        assert res.detection_rate is None
        assert res.ledger.frames_fired == 288

    def test_frame_rate_too_low_for_any_frame(self):
        # the first frame's tick, 50 / fps, overflows to infinity
        det = DETECTORS["ssd-1.0"].replace(fps=7.451148835073434e-308)
        res = run_single(make_cfg(detector=det, duration=1.0))
        assert res.ledger.frames_fired == 0

    @pytest.mark.parametrize("field, value", [("control_dt", "x"), ("start", (1.0, 2.0))])
    def test_config_checked_before_the_flight_reads_it(self, field, value):
        with pytest.raises(ValidationError) as exc:
            run_single(make_cfg(**{field: value}))
        assert exc.value.path == field

    def test_validation(self):
        with pytest.raises(SimError):
            run_single(make_cfg(duration=-1.0))
        with pytest.raises(SimError):
            run_single(make_cfg(policy_cfg=PolicyConfig(cruise_speed=1.5)))
        with pytest.raises(SimError):
            run_single(make_cfg(policy_cfg=PolicyConfig(trigger_dist=4.5)))


def small_spec(**kw):
    base = dict(policies=("pseudo-random", "spiral"), speeds=(0.5,),
                detectors=(None,), runs_per_config=2, base_seed=7, duration=10.0)
    base.update(kw)
    return SweepSpec(**base)


class TestSweep:
    def test_default_spec_is_the_full_protocol(self):
        spec = SweepSpec()
        assert len(list(spec.configurations())) == 12
        assert spec.runs_per_config == 5

    def test_spec_is_frozen_and_checked_when_replaced(self):
        # a changed spec would skip its checks: runs_per_config=0 gave 0 rows
        spec = SweepSpec()
        with pytest.raises(FrozenError):
            spec.runs_per_config = 0
        with pytest.raises(FrozenError):
            spec.speeds = (5.0,)
        assert spec == SweepSpec() and hash(spec) == hash(SweepSpec())
        with pytest.raises(ValidationError) as err:
            spec.replace(runs_per_config=0)
        assert err.value.path == "runs_per_config"

    def test_row_count_and_order(self):
        sweep = run_sweep(small_spec())
        assert len(sweep.rows) == 4
        assert [(r.policy, r.run) for r in sweep.rows] == [
            ("pseudo-random", 0), ("pseudo-random", 1), ("spiral", 0), ("spiral", 1)]

    def test_reproducible(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec())
        assert a.rows == b.rows

    def test_parallel_matches_serial(self):
        serial = run_sweep(small_spec())
        parallel = run_sweep(small_spec(), jobs=2)
        assert serial.rows == parallel.rows
        assert [g.dwell for g in serial.grids] == [g.dwell for g in parallel.grids]

    def test_seed_derivation_is_stable(self):
        a = run_seed_for(42, "spiral", 0.5, None, 3)
        b = run_seed_for(42, "spiral", 0.5, None, 3)
        assert a == b
        assert run_seed_for(42, "spiral", 0.5, None, 4) != a
        assert run_seed_for(42, "spiral", 0.5, "ssd-1.0", 3) != a
        assert run_seed_for(43, "spiral", 0.5, None, 3) != a

    def test_single_run_variance_is_zero(self):
        sweep = run_sweep(small_spec(runs_per_config=1))
        for agg in aggregate(sweep.rows):
            assert agg.runs == 1
            assert agg.coverage_var == 0.0

    def test_aggregate_means(self):
        sweep = run_sweep(small_spec())
        aggs = {(a.policy, a.speed): a for a in aggregate(sweep.rows)}
        rows = [r for r in sweep.rows if r.policy == "spiral"]
        manual = sum(r.coverage for r in rows) / len(rows)
        assert aggs[("spiral", 0.5)].coverage_mean == pytest.approx(manual)

    def test_every_configuration_checked_before_the_first_mission(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "fly", lambda *a, **k: calls.append(a))
        boxed = Arena(6.5, 5.5, obstacles=[(3.0, 2.5, 3.5, 3.0)])
        with pytest.raises(ValidationError):
            run_sweep(small_spec(), RunConfig(arena=boxed, start=(3.25, 2.75, 0.0)))
        assert calls == []

    @pytest.mark.parametrize("detector", [DETECTORS["ssd-1.0"],
                                          DetectorModel("custom", 50.0, 0.0)],
                             ids=["stock", "custom"])
    def test_template_detector_refused_before_the_first_mission(self, monkeypatch, detector):
        # the runs' detectors come from spec.detectors; the template's would be dropped
        calls = []
        monkeypatch.setattr(harness, "fly", lambda *a, **k: calls.append(a))
        template = RunConfig(arena=default_arena(), detector=detector)
        with pytest.raises(ValidationError) as err:
            run_sweep(small_spec(detectors=("ssd-1.0",)), template)
        assert err.value.path == "detector.model"
        assert calls == []

    @pytest.mark.parametrize("cpus, asked", [(1000, [4]), (2, [2]), (1, []), (None, [])],
                             ids=["1000-cpus", "2-cpus", "1-cpu", "unknown-cpus"])
    def test_workers_capped_at_flights_and_cpus(self, monkeypatch, cpus, asked):
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sweep = run_sweep(small_spec(runs_per_config=3), jobs=1000)
        assert sweep.flights == 4
        assert pools == asked
        assert sweep.rows == run_sweep(small_spec(runs_per_config=3)).rows

    def test_each_distinct_flight_counted_once(self):
        # pseudo-random draws: one flight per run; spiral: one for all three
        sweep = run_sweep(small_spec(runs_per_config=3))
        assert len(sweep.rows) == 6
        assert sweep.flights == 4

    def test_errors_tagged_with_configuration(self):
        boxed = Arena(6.5, 5.5, obstacles=[(3.0, 2.5, 3.5, 3.0)])
        with pytest.raises(ValidationError) as err:
            run_sweep(small_spec(), RunConfig(arena=boxed, start=(3.25, 2.75, 0.0)))
        assert err.value.path == "run.start"
        assert str(err.value) == "run.start: (3.25, 2.75) is not in free space"


class TestAggregateDetection:
    def test_matrix_shape(self):
        spec = small_spec(policies=("pseudo-random", "wall-following", "spiral",
                                    "rotate-and-measure"),
                          speeds=(0.1, 0.5, 1.0),
                          detectors=("ssd-1.0", "ssd-0.75"),
                          runs_per_config=1, duration=5.0)
        sweep = run_sweep(spec)
        matrix = aggregate_detection(sweep.rows)
        assert len(matrix) == 6  # 2 detectors x 3 speeds
        assert all(len(cells) == 4 for cells in matrix.values())

    def test_requires_a_detector(self):
        sweep = run_sweep(small_spec())
        with pytest.raises(SimError):
            aggregate_detection(sweep.rows)

    def test_requires_objects(self):
        empty = load_arena({"width": 6.5, "height": 5.5})
        template = RunConfig(arena=empty)
        spec = small_spec(detectors=("ssd-1.0",))
        sweep = run_sweep(spec, template)
        matrix = aggregate_detection(sweep.rows)
        assert matrix == {("ssd-1.0", speed): dict.fromkeys(spec.policies)
                          for speed in spec.speeds}

    def test_paired_frame_rate_dominance(self):
        # p=1 overrides: a 100 fps detector can only beat 1.6 fps on the
        # same seeds (trajectories are detector-independent)
        lo = DETECTORS["ssd-1.0"]
        hi = lo.replace(fps=100.0)
        lo_sure = lo.replace(p_detect=1.0)
        hi_sure = hi.replace(p_detect=1.0)
        means = []
        for det in (lo_sure, hi_sure):
            rates = []
            for seed in range(4):
                cfg = make_cfg(detector=det, seed=seed, duration=60.0)
                rates.append(run_single(cfg).detection_rate)
            means.append(sum(rates) / len(rates))
        assert means[1] >= means[0]


NOISY = TofConfig(noise_sigma=0.02)


def same_mission(got, want):
    assert got.digest == want.digest
    assert got.coverage == want.coverage
    assert got.detection_rate == want.detection_rate
    assert (got.ledger and got.ledger.first_seen) == (want.ledger and want.ledger.first_seen)
    assert (got.ledger and got.ledger.frames_fired) == (want.ledger and want.ledger.frames_fired)
    assert got.collision == want.collision
    assert got.elapsed == want.elapsed
    assert got.grid.dwell == want.grid.dwell


class TestFlights:
    def test_a_flight_depends_on_the_seed_only_through_the_streams_it_draws(self):
        def digest(policy, seed, **kw):
            return run_single(make_cfg(policy=policy, seed=seed, duration=30.0, **kw)).digest

        for policy in POLICY_KINDS:
            if not policy_draws(policy):
                assert digest(policy, 1) == digest(policy, 2), policy
            assert digest(policy, 1, tof=NOISY) != digest(policy, 2, tof=NOISY), policy
        assert policy_draws("pseudo-random")
        assert digest("pseudo-random", 1) != digest("pseudo-random", 2)

    def test_a_flight_that_draws_against_its_declaration_fails(self, monkeypatch):
        monkeypatch.setattr(harness, "policy_draws", lambda kind: False)
        with pytest.raises(SimError, match="program error"):
            run_single(make_cfg(duration=30.0))

    def test_a_batch_task_labels_a_program_error(self, monkeypatch, tmp_path, capsys):
        # wall-following is declared not to draw: its flight key leaves the seed out
        state, step, *declared = policies._POLICIES["wall-following"]

        def drawing_step(ps, tof, heading, dt, cfg, rng):
            rng.random()
            return step(ps, tof, heading, dt, cfg, rng)

        monkeypatch.setitem(policies._POLICIES, "wall-following",
                            (state, drawing_step, *declared))
        spec = SweepSpec(policies=("wall-following",), speeds=(0.5,), runs_per_config=2,
                         duration=1.0)
        with pytest.raises(SimError) as err:
            run_sweep(spec)
        assert str(err.value).startswith("run failed for wall-following/0.5/none seed ")
        assert "drew from a random stream that its flight key leaves out" in str(err.value)
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--runs-per-config", "2",
                     "--set", 'sweep.policies=["wall-following"]', "--set", "sweep.speeds=[0.5]",
                     "--set", "sweep.duration=1"]) == 1
        assert capsys.readouterr().err.startswith("error: run failed for wall-following/0.5/")
        assert not out.exists()

    def test_reprs_read_by_flight_key_are_pinned(self):
        # flight_key groups flights by these texts: a change to how a model
        # shows itself fails here by name, not as moved flight keys
        assert repr(RunConfig(arena=default_arena(), detector=DETECTORS["ssd-1.0"])) == (
            "RunConfig(arena=Arena(width=6.5, height=5.5, obstacles=(), objects=("
            "TargetObject(id=1, cls='bottle', pos=Vec2(x=2.9, y=2.75), radius=0.05), "
            "TargetObject(id=2, cls='tin_can', pos=Vec2(x=3.6, y=2.75), radius=0.05), "
            "TargetObject(id=3, cls='bottle', pos=Vec2(x=0.8, y=0.8), radius=0.05), "
            "TargetObject(id=4, cls='tin_can', pos=Vec2(x=5.7, y=0.8), radius=0.05), "
            "TargetObject(id=5, cls='bottle', pos=Vec2(x=0.8, y=4.7), radius=0.05), "
            "TargetObject(id=6, cls='tin_can', pos=Vec2(x=5.7, y=4.7), radius=0.05))), "
            "policy='pseudo-random', policy_cfg=PolicyConfig(cruise_speed=0.5, "
            "trigger_dist=1.0, wall_standoff=0.5, spiral_step=0.5, "
            "scan_step=0.7853981633974483, leg_max=2.0, turn_rate=1.5, k_wall=1.5, "
            "kd_wall=3.5, k_heading=2.0, follow_side='left', corner_margin=0.1, "
            "align_tol=0.05), tof=TofConfig(max_range=4.0, rate_hz=20.0, noise_sigma=0.0), "
            "camera=CameraModel(fov=1.1, max_detect_range=2.0), "
            "detector=DetectorModel(name='ssd-1.0', fps=1.6, p_detect=0.5), duration=180.0, "
            "seed=0, start=None, control_dt=0.02, drone_radius=0.05)")
        assert repr(SweepSpec()) == (
            "SweepSpec(policies=('pseudo-random', 'wall-following', 'spiral', "
            "'rotate-and-measure'), speeds=(0.1, 0.5, 1.0), detectors=(), runs_per_config=5, "
            "base_seed=42, duration=180.0)")

    def test_flight_key(self):
        cfg = make_cfg(policy="spiral")
        rebuilt = make_cfg(policy="spiral", arena=default_arena(), seed=9,
                           detector=DETECTORS["ssd-1.0"])
        assert rebuilt.arena is not cfg.arena and rebuilt.arena == cfg.arena
        assert flight_key(rebuilt) == flight_key(cfg)
        assert flight_key(cfg.replace(tof=NOISY)) != flight_key(rebuilt.replace(tof=NOISY))
        assert flight_key(cfg.replace(policy="pseudo-random")) != \
            flight_key(rebuilt.replace(policy="pseudo-random"))
        # the log writes -0.0 as "-0.000000", so the two starts are two flights
        assert flight_key(cfg.replace(start=(1.0, 5.0, 0.0))) != \
            flight_key(cfg.replace(start=(1.0, 5.0, -0.0)))
        assert flight_key(make_cfg(policy="spiral", arena=load_arena(BOXED_ROOM))) != \
            flight_key(cfg)

    def test_an_int_and_a_float_speed_are_one_flight(self):
        # a model keeps its kinds' values, so cruise_speed=1 holds 1.0
        cfgs = [make_cfg(policy_cfg=PolicyConfig(cruise_speed=speed), duration=2.0)
                for speed in (1, 1.0)]
        assert cfgs[0] == cfgs[1] and flight_key(cfgs[0]) == flight_key(cfgs[1])
        a, b = run_batch(cfgs)
        assert a.grid is b.grid and a.digest == b.digest

    @pytest.fixture(scope="class")
    def boxed_missions(self):
        """Configs and their :func:`run_single` results: each policy's seed
        under three detector settings shares one noisy flight, the two frame
        rates sample different ticks, and spiral and pseudo-random collide."""
        arena = load_arena(BOXED_ROOM)
        seeds = {"pseudo-random": 2, "spiral": 1}
        cfgs = [make_cfg(arena=arena, policy=policy, seed=seeds.get(policy, 1), tof=NOISY,
                         detector=det and DETECTORS[det])
                for policy in POLICY_KINDS for det in (None, "ssd-1.0", "ssd-0.5")]
        return cfgs, [run_single(cfg) for cfg in cfgs]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_equals_run_single(self, boxed_missions, jobs):
        cfgs, singles = boxed_missions
        batch = run_batch(cfgs, jobs=jobs)
        assert sum(res.collision.occurred for res in batch) == 2 * 3
        for got, want in zip(batch, singles, strict=True):
            same_mission(got, want)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_sweep_equals_run_single(self, noise, jobs):
        template = RunConfig(arena=load_arena(BOXED_ROOM), tof=TofConfig(noise_sigma=noise))
        spec = SweepSpec(speeds=(0.5,), detectors=("ssd-1.0", "ssd-0.5"), runs_per_config=2,
                         duration=30.0)
        sweep = run_sweep(spec, template, jobs=jobs)
        assert sweep.flights == (16 if noise else 4 + 3)
        for row, grid in zip(sweep.rows, sweep.grids, strict=True):
            cfg = template.replace(policy=row.policy, seed=row.seed, duration=30.0,
                                   policy_cfg=PolicyConfig(cruise_speed=row.speed),
                                   detector=DETECTORS[row.detector])
            want = run_single(cfg)
            assert (row.digest, row.coverage, row.detection_rate, row.collision) == \
                (want.digest, want.coverage, want.detection_rate, want.collision.occurred)
            assert grid.dwell == want.grid.dwell


@st.composite
def boxed_rooms(draw, sides=st.floats(1.0, 8.0)):
    """A room with 0-3 boxes, some of them touching a wall, and sides drawn
    from ``sides``: 1-8 m by default."""
    width, height = draw(sides), draw(sides)
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        box = []
        for side in (width, height):
            lo = draw(st.floats(0.0, 0.9)) * side
            box.append((lo, min(lo + draw(st.floats(0.05, 1.0)) * (side - lo), side)))
        (x0, x1), (y0, y1) = box
        boxes.append((x0, y0, x1, y1))
    return Arena(width, height, obstacles=boxes)


@given(arena=boxed_rooms(), policy=st.sampled_from(POLICY_KINDS),
       at=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
       radius=st.floats(0.001, 0.3), noise=st.sampled_from([0.0, 0.02]),
       speed=st.sampled_from([0.1, 0.5, 1.0]), n_ticks=st.integers(1, 500),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_every_state_a_flight_senses_from_is_in_free_space(arena, policy, at, radius, noise,
                                                           speed, n_ticks, seed):
    # ray casts and grid marks rely on this instead of checking each position
    x, y = at[0] * arena.width, at[1] * arena.height
    assume(not arena.disc_blocked(x, y, radius))
    cfg = RunConfig(arena=arena, policy=policy, policy_cfg=PolicyConfig(cruise_speed=speed),
                    tof=TofConfig(noise_sigma=noise), duration=n_ticks * 0.02,
                    start=(x, y, at[2]), drone_radius=radius, seed=seed)
    for _, seen, _, _, _, pose, blocked in fly(cfg):
        for x, y, heading in (seen,) if blocked else (seen, pose):
            assert arena.in_free_space(x, y), (x, y, heading)
            xq, yq = float(f"{x:.6f}"), float(f"{y:.6f}")
            assert 0.0 <= xq <= arena.width and 0.0 <= yq <= arena.height, (x, y, heading)


@st.composite
def creeping_flights(draw):
    """A flight that stresses the disc test's budget: a random boxed room,
    a 100 m one among them; a start at exactly the radius from a wall or
    box face, or a few ulps farther; a heading along an axis or any; and a
    speed down to one that moves the vehicle under an ulp of its position
    per tick, where rounding moves it farther than its travel.  Triggers
    and standoffs may be tiny, so a flight runs into the face."""
    arena = draw(boxed_rooms(st.one_of(st.floats(1.0, 8.0), st.just(100.0),
                                       st.floats(50.0, 100.0))))
    radius = draw(st.sampled_from([0.001, 0.05, 0.3]))
    axis = draw(st.integers(0, 1))
    side = (arena.width, arena.height)[axis]
    # (face, +1 if free space lies above it): the two walls and the box faces
    faces = [(0.0, 1), (side, -1)] + [(box[axis + k], 1 if k else -1)
                                      for box in arena.obstacles for k in (0, 2)]
    face, away = draw(st.sampled_from(faces))
    at = face + away * radius
    at += away * draw(st.integers(0, 300)) * math.ulp(at)
    other = draw(st.floats(0.0, 1.0)) * (arena.height, arena.width)[axis]
    x, y = (at, other) if axis == 0 else (other, at)
    assume(0.0 < x < arena.width and 0.0 < y < arena.height)
    assume(not arena.disc_blocked(x, y, radius))
    toward = (math.pi if away > 0 else 0.0) if axis == 0 else (-math.pi / 2 if away > 0
                                                                else math.pi / 2)
    heading = draw(st.one_of(st.just(toward), st.sampled_from([0.0, math.pi / 2, -math.pi,
                                                               -math.pi / 2]),
                             st.floats(-math.pi, math.pi)))
    dt = draw(st.sampled_from([0.02, 0.5]))
    speed = draw(st.one_of(st.sampled_from([0.1, 0.5, 1.0]),
                           st.floats(0.3, 3.0).map(lambda k: k * math.ulp(at) / dt)))
    tiny = st.sampled_from([None, 1e-9])
    policy_cfg = {key: value for key, value in (("trigger_dist", draw(tiny)),
                                                 ("wall_standoff", draw(tiny)),
                                                 ("corner_margin", draw(tiny)))
                  if value is not None}
    return RunConfig(arena=arena, policy=draw(st.sampled_from(POLICY_KINDS)),
                     policy_cfg=PolicyConfig(cruise_speed=speed, **policy_cfg),
                     control_dt=dt, duration=draw(st.integers(1, 600)) * dt,
                     start=(x, y, heading), drone_radius=radius,
                     seed=draw(st.integers(0, 2**64 - 1)))


@given(cfg=creeping_flights())
@settings(max_examples=300, deadline=None)
def test_a_flight_flags_every_tick_the_disc_test_flags(cfg):
    # a tick that skips the disc test on its budget is one the test clears
    arena, radius = cfg.arena, cfg.drone_radius
    for _, _, _, _, _, (x, y, _), blocked in fly(cfg):
        assert blocked == arena.disc_blocked(x, y, radius), (x, y)


fractions = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
detectors = st.one_of(st.none(), st.sampled_from(list(DETECTORS.values())),
                      st.builds(DetectorModel, st.just("custom"), st.floats(0.5, 50.0),
                                st.floats(0.0, 1.0)))
cameras = st.builds(CameraModel, st.floats(0.1, 3.0), st.floats(0.1, 5.0))


def free_starts(arena):
    """Starts ``(x, y)`` that the airframe disc clears in ``arena``, drawn
    from a lattice: 21 evenly spaced lines across each side's free span,
    and the lines on which the disc touches a box face.  A room with no
    free lattice point is rejected."""
    r = DEFAULT_DRONE_RADIUS

    def lines(side, faces):
        return sorted({r + (side - 2 * r) * k / 20 for k in range(21)}
                      | {face + d for face in faces for d in (-r, r)})

    xs = lines(arena.width, [x for x0, _, x1, _ in arena.obstacles for x in (x0, x1)])
    ys = lines(arena.height, [y for _, y0, _, y1 in arena.obstacles for y in (y0, y1)])
    free = [(x, y) for x in xs for y in ys if not arena.disc_blocked(x, y, r)]
    assume(free)
    return st.sampled_from(free)


@st.composite
def batches(draw):
    """2-5 base missions in one random room, each under 1-3 seeds, detectors
    and cameras: the missions of a base that do not draw on their seed share
    one flight, and all of them share the base's ``PolicyConfig``."""
    room = draw(boxed_rooms())
    spots = [(u * room.width, v * room.height) for u, v in draw(st.lists(fractions, max_size=3))]
    arena = Arena(room.width, room.height, room.obstacles,
                  [TargetObject(i, "bottle", Vec2(x, y)) for i, (x, y) in enumerate(spots)
                   if room.in_free_space(x, y)])
    starts = free_starts(arena)
    cfgs = []
    for _ in range(draw(st.integers(2, 5))):
        (x, y), heading = draw(starts), draw(st.floats(-math.pi, math.pi))
        dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
        base = RunConfig(arena=arena, policy=draw(st.sampled_from(POLICY_KINDS)),
                         policy_cfg=PolicyConfig(cruise_speed=draw(st.floats(0.05, 1.0)),
                                                 turn_rate=draw(st.floats(0.05, 2.0))),
                         tof=TofConfig(noise_sigma=draw(st.sampled_from([0.0, 0.02]))),
                         control_dt=dt, duration=draw(st.integers(1, round(10.0 / dt))) * dt,
                         start=(x, y, heading))
        cfgs += [base.replace(seed=draw(st.integers(0, 3)), detector=draw(detectors),
                              camera=draw(cameras))
                 for _ in range(draw(st.integers(1, 3)))]
    return cfgs


@given(cfgs=batches())
@settings(max_examples=25, deadline=None)
def test_a_random_batch_equals_its_single_runs(cfgs):
    for got, cfg in zip(run_batch(cfgs), cfgs, strict=True):
        same_mission(got, run_single(cfg))


@st.composite
def shared_flights(draw):
    """1-4 missions of one flight in a random room with 0-3 objects, each
    with its own detector (or none) and camera: a policy that draws no
    random numbers, without ranging noise, under 1-4 seeds, or any policy
    under one seed.  A trigger distance below the airframe radius lets a
    flight crash."""
    room = draw(boxed_rooms())
    spots = [(u * room.width, v * room.height) for u, v in draw(st.lists(fractions, max_size=3))]
    arena = Arena(room.width, room.height, room.obstacles,
                  [TargetObject(i, "bottle", Vec2(x, y)) for i, (x, y) in enumerate(spots)
                   if room.in_free_space(x, y)])
    (x, y), heading = draw(free_starts(arena)), draw(st.floats(-math.pi, math.pi))
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):  # one seed
        policy = draw(st.sampled_from(POLICY_KINDS))
        noise, seeds = draw(st.sampled_from([0.0, 0.02])), [draw(st.integers(0, 3))] * n
    else:
        policy = draw(st.sampled_from([p for p in POLICY_KINDS if not policy_draws(p)]))
        noise, seeds = 0.0, draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    dt = draw(st.sampled_from([0.02, 0.05]))
    base = RunConfig(arena=arena, policy=policy,
                     policy_cfg=PolicyConfig(cruise_speed=draw(st.sampled_from([0.5, 1.0])),
                                             trigger_dist=draw(st.sampled_from([0.011, 0.3]))),
                     tof=TofConfig(noise_sigma=noise), control_dt=dt,
                     duration=draw(st.integers(1, round(20.0 / dt))) * dt,
                     start=(x, y, heading))
    return [base.replace(seed=seed, detector=draw(detectors), camera=draw(cameras))
            for seed in seeds]


@given(cfgs=shared_flights())
@settings(max_examples=40, deadline=None)
def test_each_mission_of_a_shared_flight_detects_as_after_its_own_flight(cfgs):
    # each mission's frames draw from its own stream, at its own frame ticks
    assert len(set(map(flight_key, cfgs))) == 1
    for got, cfg in zip(harness.fly_logged(cfgs), cfgs, strict=True):
        want = detection_ledger(cfg)
        if want is None:
            assert got.ledger is None
        else:
            assert (got.ledger.first_seen, got.ledger.frames_fired,
                    got.ledger.frames_with_target) == \
                (want.first_seen, want.frames_fired, want.frames_with_target)


@pytest.mark.parametrize("policy", ["pseudo-random", "spiral"])
def test_a_frame_due_on_every_tick_skips_only_the_crash_tick(policy):
    # the golden boxed flights that collide, under a detector with a frame
    # due at every tick: every tick but the crash tick fires one
    det = DetectorModel("every-tick", fps=50.0, p_detect=0.5)
    cfg = RunConfig(arena=BOXED, policy=policy, detector=det, seed=7)
    res = run_single(cfg)
    want = detection_ledger(cfg)
    assert res.collision.occurred
    assert res.ledger.frames_fired == round(res.elapsed / cfg.control_dt) - 1
    assert (res.ledger.first_seen, res.ledger.frames_fired, res.ledger.frames_with_target) == \
        (want.first_seen, want.frames_fired, want.frames_with_target)


@pytest.mark.parametrize("heading", [math.pi, -math.pi / 2])
def test_a_crash_past_a_wall_deposits_its_dwell_in_the_room(heading):
    # a 1 m tick carries the centre 0.6 m past the west or south wall, and
    # the crash tick's dwell goes to the edge cell that the clamped pose
    # lies in, as the oracle marks it
    cfg = RunConfig(arena=default_arena(), policy="pseudo-random", control_dt=1.0, duration=5.0,
                    policy_cfg=PolicyConfig(cruise_speed=1.0, trigger_dist=0.01),
                    start=(0.4, 0.4, heading), seed=7)
    res = run_single(cfg)
    (*_, (x, y, _), blocked), = fly(cfg)
    assert blocked and min(x, y) < -0.5 and res.collision.occurred
    grid = flight_grid(cfg)
    assert res.grid.dwell == grid.dwell and res.grid.ticks == grid.ticks
    assert res.grid.dwell_at(0, 0) == 1.0


def grazes(arena, x, y, heading):
    """Whether a beam all but parallel to a box face starts on its plane.
    The 1 mm oracle rounds such a beam back onto the face and hits the
    box, while the exact cast follows its direction (``sin(math.pi)`` is
    1.2e-16) off the face and may miss it.  An exactly parallel beam is
    not left out: both hit the box."""
    along_x = 0.0 < abs(math.sin(heading)) < 1e-9
    along_y = 0.0 < abs(math.cos(heading)) < 1e-9
    return any((along_x and y in (y0, y1)) or (along_y and x in (x0, x1))
               for x0, y0, x1, y1 in arena.obstacles)


def clips(arena, x, y, heading, step=0.001):
    """Whether a beam passes through some box along a chord shorter than
    the oracle's step: the chord's slab interval ``tmax - tmin``, in
    meters along the beam.  The 1 mm oracle can step over such a chord
    and read the wall behind the box, while the exact cast hits the box.
    A beam that touches a corner (a chord of 0) counts."""
    dx, dy = math.cos(heading), math.sin(heading)
    for x0, y0, x1, y1 in arena.obstacles:
        tmin, tmax = 0.0, math.inf
        for o, d, lo, hi in ((x, dx, x0, x1), (y, dy, y0, y1)):
            if d == 0.0:
                if not lo <= o <= hi:
                    break
                continue
            t0, t1 = sorted(((lo - o) / d, (hi - o) / d))
            tmin, tmax = max(tmin, t0), min(tmax, t1)
        else:
            if 0.0 <= tmax - tmin < step:
                return True
    return False


def check_mission_accounts_for_itself(cfg):
    """The run of ``cfg`` against its per-tick grid, its collision record
    and duration, and, without noise, the last refresh's readings against
    the 1 mm ray oracle: all but the beams it cannot judge (``grazes``,
    ``clips``)."""
    arena = cfg.arena
    res = run_single(cfg)
    assert abs(res.grid.total_dwell() - res.elapsed) <= 1e-9
    # bit for bit a mark per tick, though a flight past 500 ticks deposits
    # the runs of its log chunks in parts
    marked = flight_grid(cfg)
    assert [v.hex() for v in res.grid.dwell] == [v.hex() for v in marked.dwell]
    assert res.grid.ticks == marked.ticks
    assert res.grid.coverage() == marked.coverage()
    for t, seen, frame, _, _, last, _ in fly(cfg):
        if frame.t == t:  # refreshed on this tick, from this pose
            sensed = seen, frame
    assert res.collision.occurred == arena.disc_blocked(last[0], last[1], cfg.drone_radius)
    if not res.collision.occurred:
        assert res.elapsed == cfg.duration
    if cfg.tof.noise_sigma == 0.0:
        ((x, y, heading), frame), max_range = sensed, cfg.tof.max_range
        for mount, reading in zip(MOUNT_ANGLES, frame_values(frame)):
            if grazes(arena, x, y, heading + mount) or clips(arena, x, y, heading + mount):
                continue
            want = min(dense_ray_distance(arena.width, arena.height, arena.obstacles,
                                          x, y, heading + mount), max_range)
            assert abs(reading - want) <= 0.001 + 1e-9, (mount, reading, want)


@given(data=st.data(), arena=boxed_rooms(), policy=st.sampled_from(POLICY_KINDS),
       side=st.sampled_from(["left", "right"]), noise=st.sampled_from([0.0, 0.02]),
       n_ticks=st.integers(1, 1200), seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_a_mission_in_a_random_arena_accounts_for_itself(data, arena, policy, side, noise,
                                                         n_ticks, seed):
    x, y = data.draw(free_starts(arena), label="start")
    check_mission_accounts_for_itself(RunConfig(
        arena=arena, policy=policy, policy_cfg=PolicyConfig(follow_side=side),
        tof=TofConfig(noise_sigma=noise), duration=n_ticks * 0.02,
        start=(x, y, data.draw(st.floats(-math.pi, math.pi), label="heading")), seed=seed))


def test_a_beam_that_clips_a_box_corner_is_not_judged_by_the_1mm_oracle():
    # the left beam of the last refresh crosses the corner of the second box
    # along a chord of about 0.1 mm: the exact cast hits it at 0.70954, and
    # the oracle steps over it to the wall behind, 1.839 m away
    arena = Arena(width=6.0, height=2.2196365605715402, obstacles=(
        (3.0, 1.526000135392934, 6.0, 1.6994092416875857),
        (2.109375, 1.1184887356005027, 6.0, 1.2905430832522273),
        (0.09375, 0.0, 0.83203125, 0.6936364251786064)))
    cfg = RunConfig(arena=arena, policy="wall-following",
                    policy_cfg=PolicyConfig(follow_side="right"), duration=251 * 0.02,
                    start=(2.159375, 1.745709248457232, 0.3797207505620186), seed=0)
    *_, (t, (x, y, heading), frame, *_) = (tick for tick in fly(cfg) if tick[2].t == tick[0])
    assert clips(arena, x, y, heading + MOUNT_ANGLES[1])
    assert abs(frame.left - 0.70954) < 1e-5
    assert dense_ray_distance(arena.width, arena.height, arena.obstacles,
                              x, y, heading + MOUNT_ANGLES[1]) > 1.8
    check_mission_accounts_for_itself(cfg)


@given(data=st.data(), arena=boxed_rooms(), policy=st.sampled_from(POLICY_KINDS),
       speed=st.sampled_from([0.1, 0.5, 1.0]), trigger=st.sampled_from([0.011, 0.3, 1.0]),
       n_ticks=st.integers(1, 500), seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_the_series_of_a_random_mission_replays_its_flight(data, arena, policy, speed, trigger,
                                                           n_ticks, seed):
    # a trigger distance below the airframe radius lets pseudo-random fly into a wall
    x, y = data.draw(free_starts(arena), label="start")
    cfg = RunConfig(arena=arena, policy=policy,
                    policy_cfg=PolicyConfig(cruise_speed=speed, trigger_dist=trigger),
                    duration=n_ticks * 0.02,
                    start=(x, y, data.draw(st.floats(-math.pi, math.pi), label="heading")),
                    seed=seed)
    res, lines = logged(cfg)
    series, hasher = io.StringIO(), hashlib.blake2b(digest_size=8)
    grid = OccupancyGrid(arena.width, arena.height)
    final = coverage_series_csv(io.BytesIO("".join(lines).encode("ascii")), grid, series, hasher)
    want, replay = coverage_series(lines, arena.width, arena.height)
    assert series.getvalue() == want
    assert final == f"{replay.coverage():.6f}" == f"{res.coverage:.6f}"
    assert int.from_bytes(hasher.digest(), "big") == res.digest
    assert replay.dwell == pytest.approx(res.grid.dwell, abs=1e-9)
    assert grid.dwell == replay.dwell and grid.ticks == res.grid.ticks
    # the report vouches for the run's heatmap.csv
    check_heatmap_csv(dwell_matrix_csv(res.grid.matrix_north_first()), grid)


def tick_hex(tick):
    """A tick of ``fly``, its floats by ``float.hex``: time, the pose sensed
    from, the frame, the set-point, the pose moved to, and the blocked flag."""
    t, seen, frame, _, sp, pose, blocked = tick
    return (t.hex(), *(v.hex() for v in (*seen, *frame_values(frame), *sp, *pose)), blocked)


@given(data=st.data(), arena=boxed_rooms(), policy=st.sampled_from(POLICY_KINDS),
       side=st.sampled_from(["left", "right"]), noise=st.sampled_from([0.0, 0.02]),
       dt=st.floats(0.001, 1.0), speed=st.sampled_from([0.1, 0.5, 1.0]),
       heading=st.one_of(st.sampled_from([0.0, -0.0, -math.pi]), st.floats(-math.pi, math.pi)),
       n_ticks=st.integers(1, 600), seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_a_flight_is_its_per_tick_oracle_bit_for_bit(data, arena, policy, side, noise, dt,
                                                       speed, heading, n_ticks, seed):
    # fly reuses a held set-point's displacement, runs no disc test on an
    # in-place turn and casts the beams without a loop; the oracle does none of that
    x, y = data.draw(free_starts(arena), label="start")
    cfg = RunConfig(arena=arena, policy=policy,
                    policy_cfg=PolicyConfig(cruise_speed=speed, follow_side=side),
                    tof=TofConfig(noise_sigma=noise), control_dt=dt, duration=n_ticks * dt,
                    start=(x, y, heading), seed=seed)
    got, want = list(map(tick_hex, fly(cfg))), list(map(tick_hex, per_tick_flight(cfg)))
    assert got == want
