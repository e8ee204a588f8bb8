"""Deterministic run loop, batches of missions, and the multi-configuration sweep.

One run interleaves two clocked tasks on a single timeline:

* the control task every ``control_dt`` (50 Hz default): refresh the
  ranging frame if its slower clock is due, step the policy, integrate
  the vehicle, check collision once the travel could reach a wall or
  box, and keep the tick's log row values;
* the detection task at the detector's own frame rate: each frame has an
  exact instant k/fps and is evaluated against the first vehicle pose
  timestamped at or after it (at 50 Hz that is within one tick of the
  instant); the ledger records the exact instant.

One loop, :func:`_flight`, runs the control task a log chunk of ticks
at a time and renders the chunk's log rows at its end, in one ``%``.
:func:`fly_logged` takes each chunk into the log, digest, dwell grid and
collision record, then fires the frames its ticks sample; :func:`fly` is
a view of the loop that yields each tick, and renders no rows.
:func:`run_single` is :func:`fly_logged` of one mission.  Runs are
reproducible bit for bit: a run seed expands into independent
sub-streams for the policy, the detector, and sensor noise, so enabling
or swapping the detector never perturbs the trajectory.  The trajectory
log is written and hashed into a 64-bit digest (blake2b) a chunk of rows
at a time, as it is flown.
Dwell goes to the cell of the log-quantized coordinates (six decimals),
so that replaying the emitted log reconstructs the grid's cells; it is
deposited a log chunk of ticks at a time, through the grid's one kernel
for runs of points in one cell (:meth:`OccupancyGrid.deposit`, which
rounds a position only near a cell edge), with one addition per tick,
as marking each tick would.

The vehicle's pose is three floats, ``x, y, heading``, from the start
pose to the crash check: the loop keeps them as locals, and a tick's row
values begin with the pose it senses from, so a chunk's row values, and
the pose appended after them, are the chunk's poses.

A flight depends on the seed only through the policy stream, if the
policy draws from it, and the noise stream, if the ranging is noisy
(:func:`flight_key`).  :func:`run_batch`, which the sweep uses, flies
each distinct flight of a batch once, with the detection tasks of all
its missions.

A collision truncates the run: the crash tick still deposits its dwell
(position clamped into the room), metrics cover the elapsed time, and
the record is flagged.
"""

from __future__ import annotations

import functools
import math
import os
import random
from collections import namedtuple
from math import hypot

from .arena import Arena, default_arena
from .detection import (DETECTORS, DetectionLedger, DetectorModel, attempt_detection,
                        detection_rate)
from .errors import SimError, ValidationError
from .kinds import (COUNT, POSE, POSITIVE, RADIUS, SEED, SPEED, TIME_STEP, Model,
                    choice, instance_of, list_of, nullable)
from .metrics import EnergyModel, OccupancyGrid, mission_energy
from .policies import (POLICY_KINDS, PolicyConfig, initial_state, policy_beams, policy_draws,
                       policy_step)
from .seeding import blake2b, derive_seed
from .sensing import CameraModel, TofBank, TofConfig, objects_in_fov
from .vehicle import DEFAULT_DRONE_RADIUS, CollisionRecord, step

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

    KINDS = {"arena": instance_of(Arena), "policy": POLICY_NAME,
             "policy_cfg": instance_of(PolicyConfig), "tof": instance_of(TofConfig),
             "camera": instance_of(CameraModel), "detector": nullable(instance_of(DetectorModel)),
             "duration": POSITIVE, "seed": SEED, "start": nullable(POSE),
             "control_dt": TIME_STEP, "drone_radius": RADIUS}

    def __post_init__(self):
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


RunResult = namedtuple("RunResult", "coverage grid ledger detection_rate collision digest "
                                    "energy elapsed")
RunResult.__doc__ = """One mission's outcome: ``coverage`` and ``detection_rate``
(None without a detector or objects), floats; its dwell ``grid``, an
:class:`OccupancyGrid`; its :class:`DetectionLedger` ``ledger`` or None;
its :class:`CollisionRecord`; its log ``digest``, an int; ``energy``,
joules by component; ``elapsed``, seconds flown.

Missions that share a flight (see :func:`run_batch`) share its
``grid`` object: read it, do not change it.  The ``collision`` record
they also share is immutable.
"""


def fly(cfg: RunConfig):
    """The control task of one mission (``cfg`` was checked when made):
    per tick refresh the ranging frame if due, step the policy, integrate
    the vehicle and test the airframe disc at the new pose for a collision
    once the travel since the last test could reach a wall or box.
    A refresh casts the front beam and the beams the policy reads on every
    step (:func:`policies.policy_beams`); a frame casts any other when read.
    Each pose it senses from, the start or one the disc cleared, is in
    free space (see :data:`kinds.RADIUS`).

    A tick adds the displacement of :func:`vehicle.step` from the origin
    (the same floats as a step from the pose), and reuses the last one
    while the set-point object and the heading repeat.  An in-place turn
    runs no disc test: it keeps a position that the last tick, or the
    start check, cleared.

    The disc test waits for the travel to spend a budget (conservative
    advancement; Ericson, *Real-Time Collision Detection*, 2004, ch. 5).
    Let u be ``math.ulp`` of the room's larger side, or of 1 m if that is
    larger.  At the start, and after each test that passes at (x, y), the
    budget is ``arena.clearance(x, y) - radius - 8u``; each tick that moves
    spends ``hypot(dx, dy) + 4u``, and the tick that leaves it below 0
    tests the disc.  The bound: until then the centre stays within the
    spent travel of (x, y), so at least ``radius`` from every wall and box
    (an addition to x or y rounds by at most u/2, ``hypot`` and the budget's
    own arithmetic by at most 2u together, so 4u covers a tick), and 8u
    covers the clearance's rounding (under 2u) and the disc test's own (its
    squared distance errs by under 5 units in the last place, and a radius
    is under half the room).  So a tick that runs no test is one
    whose test returns False.  A tick moves at most 1 m and a flight at
    most ``MAX_TICKS`` ticks, so the slack costs under 6e-8 m of travel.

    Yields ``(t, seen, frame, ps, sp, pose, blocked)`` per tick, where
    ``seen`` is the pose sensed from and ``pose`` the pose the tick moves
    to, each an ``(x, y, heading)`` tuple; a tick's ``seen`` is the
    previous tick's ``pose`` object.  It stops after the last tick or the
    first blocked one.  Once run to its end it raises :class:`SimError` if
    it drew from a stream that :func:`_streams` declares undrawn: that
    would be a program error.  It is a view of the run loop
    :func:`_flight`, so it flies up to 500 ticks ahead of its consumer;
    the loop renders no log rows for it.
    """
    records = []
    for _ in _flight(cfg, records):
        yield from records
        records.clear()


# ticks per chunk of log rows: the rows of a chunk are hashed as one string
_LOG_CHUNK = 500


@functools.lru_cache(maxsize=20)  # 10 000 ticks in about 100 kB
def _tick_column(dt: float, first: int) -> str:
    """The `t` column of the log rows of the chunk of ticks from ``first``,
    ``f"{i * dt:.6f}"`` each, space-separated: built once for every
    flight at ``dt``, and kept as one string to keep it small; the run
    loop turns it into the chunk's row format."""
    return " ".join(f"{i * dt:.6f}" for i in range(first, first + _LOG_CHUNK))


# the rest of a log row after its `t`: the pose it senses from and the
# set-point's text, which holds the line end
_ROW = ",%.6f,%.6f,%.6f,%s"


def _flight(cfg: RunConfig, records: list | None = None):
    """The run loop: the ticks of :func:`fly` of ``cfg``, a log chunk at a
    time.  Yields ``(text, values, blocked)`` per chunk.  ``values`` is a
    flat list: each tick's row values, the pose it senses from and its
    set-point's text, ``x, y, heading, sp_text``, then the pose the last
    tick moves to, ``x, y, heading``; so the pose tick k moves to is the
    row of tick k + 1.  ``blocked`` tells whether the last tick is blocked.
    ``text`` is the chunk's log rows, rendered from ``values`` at the
    chunk's end by one ``%`` with the format ``%.6f`` of each float and the
    tick's time (from :func:`_tick_column`) baked in; a set-point's text
    is formatted on the tick it is a new object.  With ``records`` given,
    each tick's ``(t, seen, frame, ps, sp, pose, blocked)`` goes there and
    ``text`` is None: only :func:`fly_logged` reads the rows.  It checks
    the streams after the last chunk."""
    arena = cfg.arena
    dt, n_ticks = cfg.control_dt, cfg.n_ticks()
    streams = _streams(cfg)
    rngs = {name: random.Random(derive_seed(cfg.seed, name)) for name, _ in streams}
    policy_rng, noise_rng = rngs["policy"], rngs["noise"]
    unused = [rngs[name] for name, drawn in streams if not drawn]
    before = [rng.getstate() for rng in unused]
    x, y, heading = pose = cfg.start_pose()
    kind, policy_cfg, radius = cfg.policy, cfg.policy_cfg, cfg.drone_radius
    ps = initial_state(kind, policy_cfg, heading, arena, radius)
    bank = TofBank(cfg.tof, policy_beams(kind, policy_cfg))
    sample = bank.sample
    disc_blocked, clearance = arena.disc_blocked, arena.clearance
    u = math.ulp(max(arena.width, arena.height, 1.0))
    slack, margin = 4.0 * u, radius + 8.0 * u
    budget = clearance(x, y) - margin
    # the set-point and heading of the last step; dx, dy and the heading
    # its result (a reused step leaves the heading as it is), and travel
    # what a tick of it spends of the budget
    last_sp = last_heading = None
    blocked = False
    for first in range(0, n_ticks, _LOG_CHUNK):
        values = []
        row = values.extend
        # time is the tick count times dt, never a running sum
        for i in range(first, min(first + _LOG_CHUNK, n_ticks)):
            t_i = i * dt
            if t_i >= bank.due:  # else the held frame is still valid
                frame = sample(arena, x, y, heading, noise_rng, t_i)
            ps, sp = policy_step(kind, ps, frame, heading, dt, policy_cfg, policy_rng)
            if sp is not last_sp:
                sp_text = "%.6f,%.6f\n" % sp
            row((x, y, heading, sp_text))
            if sp is not last_sp or heading != last_heading:
                last_sp, last_heading = sp, heading
                dx, dy, heading = step(0.0, 0.0, heading, sp, dt)
                travel = hypot(dx, dy) + slack
            if dx or dy:  # an in-place turn keeps a position the last tick cleared
                x += dx
                y += dy
                budget -= travel
                if budget < 0.0:
                    blocked = disc_blocked(x, y, radius)
                    budget = clearance(x, y) - margin
            if records is not None:
                seen, pose = pose, (x, y, heading)
                records.append((t_i, seen, frame, ps, sp, pose, blocked))
            if blocked:
                break
        text = None
        if records is None:
            n, column = i + 1 - first, _tick_column(dt, first)
            if n < _LOG_CHUNK:  # a crash or the last chunk: the t of its n ticks
                column = " ".join(column.split(" ", n)[:n])
            text = (column.replace(" ", _ROW) + _ROW) % tuple(values)
        row((x, y, heading))
        yield text, values, blocked
        if blocked:
            break
    if [rng.getstate() for rng in unused] != before:
        raise SimError(f"program error: a {cfg.policy} flight drew from a random stream "
                       "that its flight key leaves out")


def fly_logged(cfgs: list[RunConfig], log=None) -> list[RunResult]:
    """The missions of ``cfgs``, which share one :func:`flight_key`, flown
    once: the flight of the first, from the run loop :func:`_flight`, with
    the log, digest, grid and collision record, and each detector's frames
    as the flight reaches them.  One result per config, in order.

    The loop hands over a log chunk of ticks at a time: its rendered rows
    and its row values, which hold the pose after each tick (the next
    tick's row, and after the last tick the pose appended past the rows).
    The rows go to ``log``, an open text file or ``None``, and to the
    digest; the grid gets each tick's dt at the position after the tick,
    which :meth:`OccupancyGrid.deposit` rounds as the log does (the crash
    tick's clamped into the room first, after the collision record takes
    the unclamped last pose).
    After each chunk, each mission with a detector fires its frames due at
    a tick up to the chunk's last uncrashed one: its ledger's
    ``frames_fired`` counts the frames fired so far, and so names the next.
    A frame evaluates the camera at the pose after its tick and draws from
    its mission's own ``detect`` stream, which depends on nothing the
    flight does; the ledger records the frame's exact instant.  Missions
    share only the poses, so each fires its frames in turn.  No frame
    fires on the crash tick or after the last tick."""
    cfg = cfgs[0]
    arena = cfg.arena
    dt = cfg.control_dt
    grid = OccupancyGrid(arena.width, arena.height)
    collision = CollisionRecord()
    # per mission: its detector, camera, ledger and detect stream, or None
    detectors = [(c.detector, c.camera, DetectionLedger(),
                  random.Random(derive_seed(c.seed, "detect"))) if c.detector else None
                 for c in cfgs]
    firing = [d for d in detectors if d]

    # blake2b streams: hashing a chunk of rows at once equals hashing each row
    hasher = blake2b(digest_size=8)

    def emit(text: str) -> None:
        hasher.update(text.encode("ascii"))
        if log is not None:
            log.write(text)

    emit(TRAJECTORY_HEADER + "\n")
    ticks = 0
    for text, values, blocked in _flight(cfg):
        emit(text)
        # the position each tick moves to: the next tick's row, the last the final pose
        pxs, pys = values[4::4], values[5::4]
        first, ticks = ticks, ticks + len(pxs)
        if blocked:  # the last tick: the flight stops after it; its dwell goes into the room
            collision = CollisionRecord(True, ticks * dt, pxs[-1], pys[-1])
            pxs[-1] = min(max(pxs[-1], 0.0), arena.width)
            pys[-1] = min(max(pys[-1], 0.0), arena.height)
        grid.deposit(pxs, pys, (dt,) * len(pxs))
        # each mission's frames due by the chunk's last tick, save a crash tick;
        # the next is frame frames_fired + 1, which attempt_detection counts
        for det, camera, ledger, rng in firing:
            while True:
                t = (ledger.frames_fired + 1) / det.fps
                tick = t / dt - _EPS
                # no mission reaches a frame after MAX_TICKS; ceil(inf) would raise
                due = math.ceil(tick) if tick <= MAX_TICKS else MAX_TICKS + 1
                if due > ticks - blocked:
                    break
                j = 4 * (due - first)  # the pose after due ticks: the row of tick due
                visible = objects_in_fov(arena, *values[j:j + 3], camera)
                attempt_detection(det, visible, ledger, t, rng)

    elapsed = ticks * dt
    emit("%.6f,%.6f,%.6f,%.6f,0.000000,0.000000\n" % (elapsed, *values[-3:]))
    digest = int.from_bytes(hasher.digest(), "big")
    coverage, n_objects = grid.coverage(), len(arena.objects)
    ledgers = [d and d[2] for d in detectors]
    return [RunResult(coverage, grid, ledger,
                      detection_rate(ledger, n_objects) if ledger and n_objects else None,
                      collision, digest, mission_energy(EnergyModel(), elapsed), elapsed)
            for ledger in ledgers]


def run_single(cfg: RunConfig, log=None) -> RunResult:
    """Execute one mission deterministically, with its log to ``log``
    (see :func:`fly_logged`).

    Identical configs (seed included) produce identical results and
    trajectory digests in any process, on what CI runs: CPython 3.10-3.13
    on ``ubuntu-latest`` (``tests/test_libm.py`` pins the libm results a
    flight depends on).
    """
    return fly_logged([cfg], log)[0]


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
        return fly_logged(cfgs)
    except SimError as exc:
        cfg = cfgs[0]
        det = cfg.detector.name if cfg.detector else "none"
        raise SimError(f"run failed for {cfg.policy}/{cfg.policy_cfg.cruise_speed}/{det} "
                       f"seed {cfg.seed}: {exc}") from exc


def run_batch(cfgs: list[RunConfig], jobs: int = 1) -> list[RunResult]:
    """The missions of ``cfgs``, equal to :func:`run_single` of each, in
    input order; each was checked when made.  The configs of one
    :func:`flight_key` share one flight, flown once with the detection
    task of each (:func:`fly_logged`).  With more than one worker
    (``jobs``, capped at the distinct flights and the CPUs) each distinct
    flight is one task of a process pool, which is imported only then, so
    a batch flown in this process loads none of the pool's modules.  A worker process that
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

    def __post_init__(self):
        # a configuration is one row of aggregate.csv, one heatmap and one
        # label of run seeds, and runs.csv shows its speed to three decimals
        for name, shown in (("policies", repr), ("detectors", repr), ("speeds", "{:.3f}".format)):
            texts = list(map(shown, getattr(self, name)))
            for j, text in enumerate(texts):
                if text in texts[:j]:
                    raise ValidationError(f"sweep.{name}", f"repeats {text}" + (
                        " at the three decimals of runs.csv" if name == "speeds" else ""))

    def configurations(self):
        for policy in self.policies:
            for speed in self.speeds:
                for det in self.detectors or (None,):
                    yield policy, speed, det


SweepRow = namedtuple("SweepRow", "policy speed detector run seed coverage detection_rate "
                                  "collision energy_j digest")
SweepRow.__doc__ = """One run of a sweep, a row of ``runs.csv``: its
``detector`` and ``detection_rate`` are None where it has none."""
SweepResult = namedtuple("SweepResult", "rows grids flights")
SweepResult.__doc__ = """A sweep's :class:`SweepRow` list, each run's dwell grid in row
order, and the number of distinct flights flown for the rows."""


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
    grids = [res.grid for res in results]  # one grid object a flight, also from a worker
    return SweepResult(rows=rows, grids=grids, flights=len(set(map(id, grids))))


AggregateRow = namedtuple("AggregateRow", "policy speed detector runs coverage_mean "
                                          "coverage_var rate_mean rate_var")
AggregateRow.__doc__ = """One configuration's runs: mean and population variance of
coverage and of detection rate (None unless every run has one)."""


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
