"""Deterministic run loop, batches of missions, and the multi-configuration sweep.

One run interleaves two clocked tasks on a single timeline:

* the control task, :func:`fly`, every ``control_dt`` (50 Hz default):
  refresh the ranging frame if its slower clock is due, step the policy,
  integrate the vehicle, check collision; :func:`fly_logged` consumes it
  into the flight: the log, digest, dwell grid and collision record;
* the detection task, :func:`detection_task`, at the detector's own frame
  rate: each frame has an exact instant k/fps and is evaluated against
  the first vehicle state timestamped at or after it (at 50 Hz that is
  within one tick of the instant); the ledger records the exact instant.
  The flight keeps the states at those ticks, so the detection task runs
  after it.

:func:`run_single` is the two in turn.  Runs are reproducible bit for
bit: a run seed expands into independent sub-streams for the policy, the
detector, and sensor noise, so enabling or swapping the detector never
perturbs the trajectory.  The trajectory log is written and hashed into
a 64-bit digest (blake2b) a chunk of rows at a time, as it is flown.
Dwell goes to the cell of the log-quantized coordinates (six decimals),
so that replaying the emitted log reconstructs the grid's cells; it is
deposited a cell-run at a time: each run of ticks that stays in one cell
adds its ticks' dt there together, one addition per tick, as marking
each tick would.

A flight depends on the seed only through the policy stream, if the
policy draws from it, and the noise stream, if the ranging is noisy
(:func:`flight_key`).  :func:`run_batch`, which the sweep uses, flies
each distinct flight of a batch once and runs every mission's detection
task over it.

A collision truncates the run: the crash tick still deposits its dwell
(position clamped into the room), metrics cover the elapsed time, and
the record is flagged.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import math
import os
import random
from itertools import count
from typing import NamedTuple

from .arena import Arena, default_arena
from .detection import (DETECTORS, DetectionLedger, DetectorModel, attempt_detection,
                        detection_rate)
from .errors import SimError, ValidationError
from .kinds import (COUNT, POSE, POSITIVE, RADIUS, SEED, SPEED, TIME_STEP, Model,
                    check_fields, choice, list_of, nullable)
from .metrics import EnergyModel, OccupancyGrid, mission_energy
from .policies import POLICY_KINDS, PolicyConfig, initial_state, policy_draws, policy_step
from .seeding import derive_seed
from .sensing import CameraModel, TofBank, TofConfig, objects_in_fov
from .vehicle import DEFAULT_DRONE_RADIUS, CollisionRecord, VehicleState, step

TRAJECTORY_HEADER = "t,x,y,heading,v_cmd,omega_cmd"
POLICY_NAME = choice(POLICY_KINDS)
DETECTOR_NAME = nullable(choice(DETECTORS))  # null: no detector
DEFAULT_CONTROL_DT = 0.02
# 20 000 s at 50 Hz; a 10^6-tick spiral `run` takes 9-12 s and writes a
# 58 MB trajectory.csv as it flies, in the memory of a 9000-tick one
MAX_TICKS = 10**6
_EPS = 1e-9


def tick_count(duration: float, dt: float, key: str) -> int:
    """Whole control ticks of ``dt`` in ``duration``, else a ValidationError naming ``key``."""
    if duration / dt > MAX_TICKS + 0.5:
        raise ValidationError(key, f"more than {MAX_TICKS} control ticks")
    n_ticks = int(round(duration / dt))
    if n_ticks < 1:
        raise ValidationError(key, "shorter than one control tick")
    if abs(n_ticks * dt - duration) > _EPS:
        raise ValidationError(key, "not a whole number of control ticks")
    return n_ticks


class RunConfig(Model):
    """One mission's parameters, checked when made: any RunConfig can fly."""

    arena: Arena
    policy: str = "pseudo-random"
    policy_cfg: PolicyConfig = PolicyConfig()  # immutable, so one default serves every config
    tof: TofConfig = TofConfig()
    camera: CameraModel = CameraModel()
    detector: DetectorModel | None = None
    duration: float = 180.0
    seed: int = 0
    start: tuple[float, float, float] | None = None  # (x, y, heading); None = room center
    control_dt: float = DEFAULT_CONTROL_DT
    drone_radius: float = DEFAULT_DRONE_RADIUS

    KINDS = {"policy": POLICY_NAME, "duration": POSITIVE, "seed": SEED,
             "start": nullable(POSE), "control_dt": TIME_STEP, "drone_radius": RADIUS}

    def __post_init__(self):
        check_fields(self)
        self.n_ticks()
        if self.policy_cfg.trigger_dist > self.tof.max_range + _EPS:
            raise ValidationError("policy.trigger_dist", "exceeds tof.max_range")
        x0, y0, _ = self.start_pose()
        # a start the airframe clears is in free space (see kinds.RADIUS)
        if self.arena.disc_blocked(x0, y0, self.drone_radius):
            raise ValidationError("run.start", f"({x0}, {y0}) is not in free space")

    def n_ticks(self) -> int:
        """Control ticks in the mission."""
        return tick_count(self.duration, self.control_dt, "run.duration")

    def start_pose(self) -> tuple[float, float, float]:
        if self.start is not None:
            return self.start
        c = self.arena.center
        return (c.x, c.y, 0.0)


class RunResult(NamedTuple):
    """One mission's outcome.

    Missions that share a flight (see :func:`run_batch`) share its
    ``grid`` object: read it, do not change it.  The ``collision`` record
    they also share is immutable.
    """

    coverage: float
    grid: OccupancyGrid
    ledger: DetectionLedger | None
    detection_rate: float | None
    collision: CollisionRecord
    digest: int
    energy: dict[str, float]
    elapsed: float


class Flight(NamedTuple):
    """What a mission's seed reaches only through the policy and noise
    streams: the trajectory digest, dwell grid, collision record and
    elapsed time, plus the vehicle state after each tick that a detector
    frame samples."""

    grid: OccupancyGrid
    collision: CollisionRecord
    digest: int
    elapsed: float
    seen: dict[int, VehicleState]  # tick index -> state after that tick


def fly(cfg: RunConfig):
    """The control task of one mission (``cfg`` was checked when made):
    per tick refresh the ranging frame if due, step the policy, integrate
    the vehicle and test the airframe disc at the new state for a collision.
    Each state it senses from, the start or one the disc cleared, is in
    free space (see :data:`kinds.RADIUS`).

    Yields ``(t, state_seen, frame, ps, sp, next_state, blocked)`` per
    tick; stops after the last tick or the first blocked one.  Once run
    to its end it raises :class:`SimError` if it drew from a stream that
    :func:`_streams` declares undrawn: that would be a program error.
    """
    arena = cfg.arena
    x0, y0, h0 = cfg.start_pose()
    dt = cfg.control_dt
    streams = _streams(cfg)
    rngs = {name: random.Random(derive_seed(cfg.seed, name)) for name, _ in streams}
    policy_rng, noise_rng = rngs["policy"], rngs["noise"]
    unused = [rngs[name] for name, drawn in streams if not drawn]
    before = [rng.getstate() for rng in unused]
    state = VehicleState(x0, y0, h0)
    kind, policy_cfg, radius = cfg.policy, cfg.policy_cfg, cfg.drone_radius
    ps = initial_state(kind, policy_cfg, h0, arena, radius)
    bank = TofBank(cfg.tof)
    sample = bank.sample
    disc_blocked = arena.disc_blocked
    for i in range(cfg.n_ticks()):
        t_i = i * dt
        if t_i >= bank.due:  # else the held frame is still valid
            frame = sample(arena, state, noise_rng, t_i)
        ps, sp = policy_step(kind, ps, frame, state.heading, dt, policy_cfg, policy_rng)
        nxt = step(state, sp, dt)
        blocked = disc_blocked(nxt.x, nxt.y, radius)
        yield t_i, state, frame, ps, sp, nxt, blocked
        if blocked:
            break
        state = nxt
    if [rng.getstate() for rng in unused] != before:
        raise SimError(f"program error: a {cfg.policy} flight drew from a random stream "
                       "that its flight key leaves out")


def _frame_ticks(fps: float, dt: float):
    """``(tick, instant)`` of detector frames k = 1, 2, ...: frame k's exact
    instant k/fps is sampled by the first tick at or after it."""
    k = 1
    while True:
        t = k / fps
        tick = t / dt - _EPS
        # no mission reaches a frame after MAX_TICKS; ceil(inf) would raise
        yield (math.ceil(tick) if tick <= MAX_TICKS else MAX_TICKS + 1), t
        k += 1


# ticks per chunk of log rows: the rows of a chunk are hashed as one string
_LOG_CHUNK = 500


@functools.lru_cache(maxsize=20)  # 10 000 ticks in about 100 kB
def _tick_column(dt: float, first: int) -> str:
    """The `t` column of the log rows of the chunk of ticks from ``first``,
    ``f"{i * dt:.6f}"`` each, space-separated: built once for every
    flight at ``dt``, and kept as one string to keep it small."""
    return " ".join(f"{i * dt:.6f}" for i in range(first, first + _LOG_CHUNK))


def fly_logged(cfg: RunConfig, frame_rates=(), log=None) -> Flight:
    """The flight of one mission: :func:`fly` plus the log, digest, grid and
    collision record, keeping the state after every tick that a frame of a
    detector at one of ``frame_rates`` (frames per second) samples.  The
    log goes to ``log``, an open text file or ``None``, a chunk at a time.
    The grid gets each tick's dt at the tick's quantized position (clamped
    into the room on a crash tick): the ticks of a run in one cell are
    deposited when the position leaves the cell, and the last run at the
    end (:meth:`OccupancyGrid.deposit`)."""
    arena = cfg.arena
    x0, y0, h0 = cfg.start_pose()
    dt = cfg.control_dt
    grid = OccupancyGrid(arena.width, arena.height)
    cell, deposit = grid.cell, grid.deposit
    collision = CollisionRecord()
    seen: dict[int, VehicleState] = {}
    dues = heapq.merge(*(_frame_ticks(fps, dt) for fps in set(frame_rates)))
    frame_due = next(dues, (-1,))[0]

    # blake2b streams: hashing a chunk of rows at once equals hashing each row
    hasher = hashlib.blake2b(digest_size=8)

    def emit(text: str) -> None:
        hasher.update(text.encode("ascii"))
        if log is not None:
            log.write(text)

    emit(TRAJECTORY_HEADER + "\n")
    x, y, heading = x0, y0, h0
    xs = f"{x0:.6f}"
    ys = f"{y0:.6f}"
    hs = f"{h0:.6f}"
    xq = float(xs)
    yq = float(ys)
    # the dwell cell of the current run of ticks, its bounds and the run's
    # length: the first tick starts a run, as the bounds hold no point
    i_cell, run, x_lo, x_hi, y_lo, y_hi = 0, 0, 0.0, 0.0, 0.0, 0.0

    # time is the tick count times dt, never a running sum; a coordinate's
    # text is formatted again only when it changes (a zero may change sign),
    # and a set-point's only when it is not the object of the last tick
    flight = fly(cfg)
    last_sp = None
    for first in count(0, _LOG_CHUNK):
        rows = []
        for t_text, ticks, (_, _, _, _, sp, state, blocked) in zip(
                _tick_column(dt, first).split(" "), count(first + 1), flight):
            if sp is not last_sp:
                last_sp = sp
                sp_text = f"{sp[0]:.6f},{sp[1]:.6f}\n"
            rows.append(f"{t_text},{xs},{ys},{hs},{sp_text}")
            if state.x != x or not x:
                x = state.x
                xs = f"{x:.6f}"
                xq = float(xs)
            if state.y != y or not y:
                y = state.y
                ys = f"{y:.6f}"
                yq = float(ys)
            if state.heading != heading or not heading:
                heading = state.heading
                hs = f"{heading:.6f}"
            if blocked:  # the last tick: fly stops after it, at a clamped state
                collision = CollisionRecord(True, ticks * dt, state.x, state.y)
                xq = min(max(xq, 0.0), arena.width)
                yq = min(max(yq, 0.0), arena.height)
            else:
                while frame_due == ticks:
                    seen[ticks] = state
                    frame_due = next(dues)[0]
            if x_lo <= xq < x_hi and y_lo <= yq < y_hi:
                run += 1
            else:  # a new cell: deposit the run that ends
                deposit(i_cell, (dt,) * run)
                i_cell, x_lo, x_hi, y_lo, y_hi = cell(xq, yq)
                run = 1
        emit("".join(rows))
        if len(rows) < _LOG_CHUNK:
            break

    deposit(i_cell, (dt,) * run)
    elapsed = ticks * dt
    emit(f"{elapsed:.6f},{xs},{ys},{hs},0.000000,0.000000\n")
    return Flight(grid, collision, int.from_bytes(hasher.digest(), "big"), elapsed, seen)


def detection_task(cfg: RunConfig, seen: dict[int, VehicleState]) -> DetectionLedger | None:
    """The detection task of one mission over its flight's ``seen`` states:
    every frame whose tick the flight reached (the crash tick excluded)
    evaluates the camera at that tick's state and draws from the
    ``detect`` stream; the ledger records the frame's exact instant."""
    det = cfg.detector
    if det is None:
        return None
    rng = random.Random(derive_seed(cfg.seed, "detect"))
    ledger = DetectionLedger()
    for tick, t in _frame_ticks(det.fps, cfg.control_dt):
        state = seen.get(tick)
        if state is None:
            return ledger
        attempt_detection(det, objects_in_fov(cfg.arena, state, cfg.camera), ledger, t, rng)


def _result(cfg: RunConfig, flight: Flight) -> RunResult:
    ledger = detection_task(cfg, flight.seen)
    rate = None
    if ledger is not None and len(cfg.arena.objects) > 0:
        rate = detection_rate(ledger, len(cfg.arena.objects))
    return RunResult(
        coverage=flight.grid.coverage(),
        grid=flight.grid,
        ledger=ledger,
        detection_rate=rate,
        collision=flight.collision,
        digest=flight.digest,
        energy=mission_energy(EnergyModel(), flight.elapsed),
        elapsed=flight.elapsed,
    )


def run_single(cfg: RunConfig, log=None) -> RunResult:
    """Execute one mission deterministically: its flight, with its log
    to ``log`` (see :func:`fly_logged`), then its detection task over the
    flight's states.

    Identical configs (seed included) produce identical results and
    trajectory digests, regardless of process or platform.
    """
    rates = (cfg.detector.fps,) if cfg.detector is not None else ()
    return _result(cfg, fly_logged(cfg, rates, log))


_NOT_FLOWN = ("seed", "detector", "camera")


def _streams(cfg: RunConfig) -> tuple[tuple[str, bool], ...]:
    """``(sub-seed label, drawn)`` of each random stream of a flight of ``cfg``."""
    return (("policy", policy_draws(cfg.policy)), ("noise", cfg.tof.noise_sigma > 0.0))


def flight_key(cfg: RunConfig) -> tuple:
    """What the flight of ``cfg`` depends on: every field but seed, detector
    and camera, by ``repr`` (which, unlike ``==``, tells -0.0 from 0.0, as
    the log does), plus the sub-seed of each stream it draws from."""
    flown = tuple(repr(getattr(cfg, f)) for f in cfg.FIELDS if f not in _NOT_FLOWN)
    return (flown, *(derive_seed(cfg.seed, name) if drawn else None
                     for name, drawn in _streams(cfg)))


def _sweep_task(cfgs: list[RunConfig]) -> list[RunResult]:
    """One task of a batch: the missions of one flight key, which share
    one flight; one result per config, in order."""
    try:
        flight = fly_logged(cfgs[0], [cfg.detector.fps for cfg in cfgs if cfg.detector])
        return [_result(cfg, flight) for cfg in cfgs]
    except SimError as exc:
        cfg = cfgs[0]
        det = cfg.detector.name if cfg.detector else "none"
        raise SimError(f"run failed for {cfg.policy}/{cfg.policy_cfg.cruise_speed}/{det} "
                       f"seed {cfg.seed}: {exc}") from exc


def run_batch(cfgs: list[RunConfig], jobs: int = 1) -> list[RunResult]:
    """The missions of ``cfgs``, equal to :func:`run_single` of each, in
    input order; each was checked when made.  The configs of one
    :func:`flight_key` share one flight, flown once, and each runs its own
    detection task over it.  With more than one worker (``jobs``, capped
    at the distinct flights and the CPUs) each distinct flight is one task
    of a process pool, which is imported only then, so a batch flown in
    this process loads none of the pool's modules.  A worker process that
    dies raises :class:`SimError`.  Nothing is kept after the call returns."""
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(flight_key(cfg), []).append(i)
    tasks = [[cfgs[i] for i in members] for members in groups.values()]
    # a forked pool starts all its workers at its first task: no more than
    # there are tasks or CPUs
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                flown = list(pool.map(_sweep_task, tasks))
        except BrokenExecutor as exc:
            raise SimError(f"a sweep worker process died: {exc}") from None
    else:
        flown = [_sweep_task(task) for task in tasks]
    results = [None] * len(cfgs)
    for members, task_results in zip(groups.values(), flown):
        for i, res in zip(members, task_results):
            results[i] = res
    return results


class SweepSpec(Model):
    policies: tuple[str, ...] = POLICY_KINDS
    speeds: tuple[float, ...] = (0.1, 0.5, 1.0)
    detectors: tuple[str | None, ...] = ()  # empty: exploration only
    runs_per_config: int = 5
    base_seed: int = 42
    duration: float = 180.0

    KINDS = {"policies": list_of(POLICY_NAME), "speeds": list_of(SPEED),
             "detectors": list_of(DETECTOR_NAME, nonempty=False),
             "runs_per_config": COUNT, "base_seed": SEED, "duration": POSITIVE}

    def configurations(self):
        for policy in self.policies:
            for speed in self.speeds:
                for det in self.detectors or (None,):
                    yield policy, speed, det


class SweepRow(NamedTuple):
    policy: str
    speed: float
    detector: str | None
    run: int
    seed: int
    coverage: float
    detection_rate: float | None
    collision: bool
    energy_j: float
    digest: int


class SweepResult(NamedTuple):
    rows: list[SweepRow]
    grids: list[OccupancyGrid]  # each run's dwell grid, in row order
    flights: int                # distinct flights flown for the rows


def run_seed_for(base_seed: int, policy: str, speed: float, detector: str | None,
                 run_idx: int) -> int:
    """Seed for one sweep run: base seed mixed with the configuration label
    and the run index (splitmix64 chain)."""
    label = f"{policy}|{speed:.6f}|{detector or 'none'}"
    return derive_seed(base_seed, label, run_idx)


def run_sweep(spec: SweepSpec, template: RunConfig | None = None,
              jobs: int = 1) -> SweepResult:
    """Execute the full sweep as one :func:`run_batch`; per-run results are
    independent of the execution order or degree of parallelism.  Each
    configuration is checked as ``replace`` builds it, before any flight.
    A template with a detector is refused: each run's detector is one of
    ``spec.detectors``."""
    if template is None:
        template = RunConfig(arena=default_arena())
    if template.detector is not None:
        raise ValidationError("detector.model", "a sweep runs the stock models of "
                              "sweep.detectors; set no detector.* key")
    # every run flies spec.duration: check it once, under its own key
    tick_count(spec.duration, template.control_dt, "sweep.duration")
    cfgs, runs = [], []
    for policy, speed, det in spec.configurations():
        cfg = template.replace(policy=policy, duration=spec.duration,
                               policy_cfg=template.policy_cfg.replace(cruise_speed=speed),
                               detector=DETECTORS[det] if det is not None else None)
        for i in range(spec.runs_per_config):
            cfgs.append(cfg.replace(seed=run_seed_for(spec.base_seed, policy, speed, det, i)))
            runs.append(i)

    results = run_batch(cfgs, jobs)
    rows = [SweepRow(cfg.policy, cfg.policy_cfg.cruise_speed,
                     cfg.detector and cfg.detector.name, i, cfg.seed, res.coverage,
                     res.detection_rate, res.collision.occurred,
                     res.energy["total"], res.digest)
            for cfg, i, res in zip(cfgs, runs, results)]
    return SweepResult(rows=rows, grids=[res.grid for res in results],
                       flights=len(set(map(flight_key, cfgs))))


class AggregateRow(NamedTuple):
    policy: str
    speed: float
    detector: str | None
    runs: int
    coverage_mean: float
    coverage_var: float
    rate_mean: float | None
    rate_var: float | None


def _mean_var(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var


def aggregate(rows: list[SweepRow]) -> list[AggregateRow]:
    """Per-configuration mean and population variance of coverage and
    detection rate, in first-seen configuration order."""
    groups: dict[tuple[str, float, str | None], list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.policy, row.speed, row.detector), []).append(row)
    out = []
    for (policy, speed, det), members in groups.items():
        cov_mean, cov_var = _mean_var([m.coverage for m in members])
        rates = [m.detection_rate for m in members if m.detection_rate is not None]
        if rates and len(rates) == len(members):
            rate_mean, rate_var = _mean_var(rates)
        else:
            rate_mean = rate_var = None
        out.append(AggregateRow(policy, speed, det, len(members),
                                cov_mean, cov_var, rate_mean, rate_var))
    return out


def aggregate_detection(rows: list[SweepRow]):
    """Detection-rate matrix: (detector, speed) -> {policy: mean rate}.

    Requires at least one detector-equipped configuration.  A mean rate
    is ``None`` where it is undefined: an arena without objects has none.
    """
    with_det = [r for r in rows if r.detector is not None]
    if not with_det:
        raise SimError("no detector-equipped runs in this sweep")
    matrix: dict[tuple[str, float], dict[str, float | None]] = {}
    for agg in aggregate(with_det):
        matrix.setdefault((agg.detector, agg.speed), {})[agg.policy] = agg.rate_mean
    return matrix
