import hashlib
import io
import math
import os
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exploresim import harness, policies
from exploresim.arena import (DEFAULT_ARENA_DOC, Arena, TargetObject, Vec2, default_arena,
                              load_arena)
from exploresim.cli import main
from exploresim.detection import DETECTORS, DetectorModel
from exploresim.errors import SimError, ValidationError
from exploresim.harness import (RunConfig, SweepSpec, aggregate,
                                aggregate_detection, flight_key, fly, run_batch,
                                run_seed_for, run_single, run_sweep)
from exploresim.policies import POLICY_KINDS, PolicyConfig, policy_draws
from exploresim.report import coverage_series_csv, parse_trajectory
from exploresim.seeding import derive_seed
from exploresim.sensing import MOUNT_ANGLES, CameraModel, TofBank, TofConfig
from exploresim.vehicle import DEFAULT_DRONE_RADIUS
from oracles import coverage_series, dense_ray_distance


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


def test_fly_samples_the_tof_bank_only_when_due(monkeypatch):
    # a 20 Hz bank under a 50 Hz loop refreshes on 3600 of 9000 ticks; each
    # tick's frame is the one a bank sampled on every tick would hold
    for tof in (TofConfig(), TofConfig(noise_sigma=0.02)):
        cfg = make_cfg(tof=tof)
        calls = []
        sample = TofBank.sample

        def counted(bank, arena, state, rng, t):
            calls.append(t)
            return sample(bank, arena, state, rng, t)

        monkeypatch.setattr(TofBank, "sample", counted)
        ticks = list(fly(cfg))
        monkeypatch.undo()
        assert len(ticks) == 9000 and len(calls) == 3600
        bank, rng = TofBank(tof), random.Random(derive_seed(cfg.seed, "noise"))
        assert [frame for _, _, frame, *_ in ticks] == \
            [bank.sample(cfg.arena, state, rng, t) for t, state, *_ in ticks]


class TestRunConfig:
    def test_checked_when_replaced(self):
        with pytest.raises(ValidationError) as err:
            replace(make_cfg(), duration=-1.0)
        assert err.value.path == "duration"
        with pytest.raises(ValidationError) as err:
            replace(make_cfg(), start=(-1.0, 2.0, 0.0))
        assert err.value.path == "run.start"

    def test_frozen(self):
        cfg = make_cfg()
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 1


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
            values = (t, seen.x, seen.y, seen.heading, sp.v, sp.omega)
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

    def test_no_objects_means_no_rate(self):
        empty = load_arena({"width": 6.5, "height": 5.5})
        res = run_single(make_cfg(arena=empty, detector=DETECTORS["ssd-1.0"]))
        assert res.detection_rate is None
        assert res.ledger.frames_fired == 288

    def test_frame_rate_too_low_for_any_frame(self):
        # the first frame's tick, 50 / fps, overflows to infinity
        det = replace(DETECTORS["ssd-1.0"], fps=7.451148835073434e-308)
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
        hi = replace(lo, fps=100.0)
        lo_sure = replace(lo, p_detect=1.0)
        hi_sure = replace(hi, p_detect=1.0)
        means = []
        for det in (lo_sure, hi_sure):
            rates = []
            for seed in range(4):
                cfg = make_cfg(detector=det, seed=seed, duration=60.0)
                rates.append(run_single(cfg).detection_rate)
            means.append(sum(rates) / len(rates))
        assert means[1] >= means[0]


BOXED_ROOM = dict(DEFAULT_ARENA_DOC, obstacles=[{"min": [1.5, 1.5], "max": [2.2, 2.2]},
                                               {"min": [4.5, 3.5], "max": [5.0, 4.2]}])
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
        state, step, draws = policies._POLICIES["wall-following"]

        def drawing_step(ps, tof, heading, dt, cfg, rng):
            rng.random()
            return step(ps, tof, heading, dt, cfg, rng)

        monkeypatch.setitem(policies._POLICIES, "wall-following", (state, drawing_step, draws))
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

    def test_flight_key(self):
        cfg = make_cfg(policy="spiral")
        rebuilt = make_cfg(policy="spiral", arena=default_arena(), seed=9,
                           detector=DETECTORS["ssd-1.0"])
        assert rebuilt.arena is not cfg.arena and rebuilt.arena == cfg.arena
        assert flight_key(rebuilt) == flight_key(cfg)
        assert flight_key(replace(cfg, tof=NOISY)) != flight_key(replace(rebuilt, tof=NOISY))
        assert flight_key(replace(cfg, policy="pseudo-random")) != \
            flight_key(replace(rebuilt, policy="pseudo-random"))
        # the log writes -0.0 as "-0.000000", so the two starts are two flights
        assert flight_key(replace(cfg, start=(1.0, 5.0, 0.0))) != \
            flight_key(replace(cfg, start=(1.0, 5.0, -0.0)))
        assert flight_key(make_cfg(policy="spiral", arena=load_arena(BOXED_ROOM))) != \
            flight_key(cfg)

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
            cfg = replace(template, policy=row.policy, seed=row.seed, duration=30.0,
                          policy_cfg=PolicyConfig(cruise_speed=row.speed),
                          detector=DETECTORS[row.detector])
            want = run_single(cfg)
            assert (row.digest, row.coverage, row.detection_rate, row.collision) == \
                (want.digest, want.coverage, want.detection_rate, want.collision.occurred)
            assert grid.dwell == want.grid.dwell


@st.composite
def boxed_rooms(draw):
    """A room of 1-8 m sides with 0-3 boxes, some of them touching a wall."""
    width, height = draw(st.floats(1.0, 8.0)), draw(st.floats(1.0, 8.0))
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
    for _, seen, _, _, _, nxt, blocked in fly(cfg):
        for state in (seen,) if blocked else (seen, nxt):
            assert arena.in_free_space(state.x, state.y), state
            xq, yq = float(f"{state.x:.6f}"), float(f"{state.y:.6f}")
            assert 0.0 <= xq <= arena.width and 0.0 <= yq <= arena.height, state


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
        cfgs += [replace(base, seed=draw(st.integers(0, 3)), detector=draw(detectors),
                         camera=draw(cameras))
                 for _ in range(draw(st.integers(1, 3)))]
    return cfgs


@given(cfgs=batches())
@settings(max_examples=25, deadline=None)
def test_a_random_batch_equals_its_single_runs(cfgs):
    for got, cfg in zip(run_batch(cfgs), cfgs, strict=True):
        same_mission(got, run_single(cfg))


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


@given(data=st.data(), arena=boxed_rooms(), policy=st.sampled_from(POLICY_KINDS),
       side=st.sampled_from(["left", "right"]), noise=st.sampled_from([0.0, 0.02]),
       n_ticks=st.integers(1, 500), seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_a_mission_in_a_random_arena_accounts_for_itself(data, arena, policy, side, noise,
                                                         n_ticks, seed):
    x, y = data.draw(free_starts(arena), label="start")
    cfg = RunConfig(arena=arena, policy=policy, policy_cfg=PolicyConfig(follow_side=side),
                    tof=TofConfig(noise_sigma=noise), duration=n_ticks * 0.02,
                    start=(x, y, data.draw(st.floats(-math.pi, math.pi), label="heading")),
                    seed=seed)
    res = run_single(cfg)
    assert abs(res.grid.total_dwell() - res.elapsed) <= 1e-9
    for t, seen, frame, _, _, last, _ in fly(cfg):
        if frame.t == t:  # refreshed on this tick, from this state
            sensed = seen, frame
    assert res.collision.occurred == arena.disc_blocked(last.x, last.y, cfg.drone_radius)
    if not res.collision.occurred:
        assert res.elapsed == cfg.duration
    if noise == 0.0:
        (state, frame), max_range = sensed, cfg.tof.max_range
        for mount, reading in zip(MOUNT_ANGLES, frame[:4]):
            if grazes(arena, state.x, state.y, state.heading + mount):
                continue
            want = min(dense_ray_distance(arena.width, arena.height, arena.obstacles,
                                          state.x, state.y, state.heading + mount), max_range)
            assert abs(reading - want) <= 0.001 + 1e-9, (mount, reading, want)


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
    final = coverage_series_csv(io.StringIO("".join(lines)), arena.width, arena.height, series,
                                hasher)
    want, replay = coverage_series(lines, arena.width, arena.height)
    assert series.getvalue() == want
    assert final == f"{replay.coverage():.6f}" == f"{res.coverage:.6f}"
    assert int.from_bytes(hasher.digest(), "big") == res.digest
    assert replay.dwell == pytest.approx(res.grid.dwell, abs=1e-9)
