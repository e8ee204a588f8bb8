"""Deterministic run loop and the multi-configuration sweep.

One run interleaves two clocked tasks on a single timeline:

* the control task, every ``control_dt`` (50 Hz default): refresh the
  ranging frame if its slower clock is due, step the policy, integrate
  the vehicle, check collision, deposit dwell into the occupancy grid;
* the detection task, at the detector's own frame rate: each frame has
  an exact instant k/fps and is evaluated against the first vehicle
  state timestamped at or after it (at 50 Hz that is within one tick of
  the instant); the ledger records the exact instant.

Runs are reproducible bit for bit: a run seed expands into independent
sub-streams for the policy, the detector, and sensor noise, so enabling
or swapping the detector never perturbs the trajectory.  The trajectory
log is hashed into a 64-bit digest (blake2b); cells are marked from the
log-quantized coordinates (six decimals) so that replaying the emitted
log reconstructs the grid exactly.

A collision truncates the run: the crash tick still deposits its dwell
(position clamped into the room), metrics cover the elapsed time, and
the record is flagged.
"""

from __future__ import annotations

import hashlib
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .arena import Arena, default_arena
from .detection import DetectionLedger, DetectorModel, attempt_detection, detection_rate
from .errors import SimError, ValidationError
from .metrics import EnergyModel, OccupancyGrid, mission_energy
from .policies import POLICY_KINDS, PolicyConfig, initial_state, policy_step
from .seeding import derive_seed
from .sensing import CameraModel, TofBank, TofConfig, objects_in_fov
from .vehicle import (DEFAULT_DRONE_RADIUS, DEFAULT_OMEGA_MAX, DEFAULT_V_MAX,
                      CollisionRecord, VehicleState, step)

TRAJECTORY_HEADER = "t,x,y,heading,v_cmd,omega_cmd"
DEFAULT_CONTROL_DT = 0.02
_EPS = 1e-9


@dataclass
class RunConfig:
    arena: Arena
    policy: str = "pseudo-random"
    policy_cfg: PolicyConfig = field(default_factory=PolicyConfig)
    tof: TofConfig = field(default_factory=TofConfig)
    camera: CameraModel = field(default_factory=CameraModel)
    detector: DetectorModel | None = None
    duration: float = 180.0
    seed: int = 0
    start: tuple[float, float, float] | None = None  # (x, y, heading); None = room center
    control_dt: float = DEFAULT_CONTROL_DT
    drone_radius: float = DEFAULT_DRONE_RADIUS
    v_max: float = DEFAULT_V_MAX
    omega_max: float = DEFAULT_OMEGA_MAX

    def validate(self) -> None:
        """Raise :class:`ValidationError`, with the config key's path, on
        any value this run cannot fly with."""
        if self.policy not in POLICY_KINDS:
            raise ValidationError("policy.kind", f"unknown policy {self.policy!r}")
        for name in ("duration", "control_dt", "drone_radius", "v_max", "omega_max"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"run.{name}", "must be a positive finite number")
        if int(round(self.duration / self.control_dt)) < 1:
            raise ValidationError("run.duration", "shorter than one control tick")
        if self.policy_cfg.cruise_speed > self.v_max + _EPS:
            raise ValidationError("policy.cruise_speed", "exceeds run.v_max")
        if self.policy_cfg.turn_rate > self.omega_max + _EPS:
            raise ValidationError("policy.turn_rate", "exceeds run.omega_max")
        if self.policy_cfg.trigger_dist > self.tof.max_range + _EPS:
            raise ValidationError("policy.trigger_dist", "exceeds tof.max_range")
        x0, y0, h0 = self.start_pose()
        if not all(math.isfinite(v) for v in (x0, y0, h0)):
            raise ValidationError("run.start", "must be finite numbers")
        if not self.arena.in_free_space(x0, y0) or self.arena.disc_blocked(x0, y0, self.drone_radius):
            raise ValidationError("run.start", f"({x0}, {y0}) is not in free space")

    def start_pose(self) -> tuple[float, float, float]:
        if self.start is not None:
            return self.start
        c = self.arena.center
        return (c.x, c.y, 0.0)


@dataclass
class RunResult:
    coverage: float
    grid: OccupancyGrid
    ledger: DetectionLedger | None
    detection_rate: float | None
    collision: CollisionRecord
    digest: int
    energy: dict[str, float]
    elapsed: float
    trajectory: list[str] | None = None  # log lines incl. header, when kept


def run_single(cfg: RunConfig, keep_trajectory: bool = False) -> RunResult:
    """Execute one mission deterministically.

    Identical configs (seed included) produce identical results and
    trajectory digests, regardless of process or platform.
    """
    cfg.validate()
    arena = cfg.arena
    x0, y0, h0 = cfg.start_pose()

    dt = cfg.control_dt
    n_ticks = int(round(cfg.duration / dt))
    end_t = n_ticks * dt

    policy_rng = random.Random(derive_seed(cfg.seed, "policy"))
    detect_rng = random.Random(derive_seed(cfg.seed, "detect"))
    noise_rng = random.Random(derive_seed(cfg.seed, "noise"))

    state = VehicleState(x0, y0, h0)
    ps = initial_state(cfg.policy, cfg.policy_cfg, h0, arena, cfg.drone_radius)
    bank = TofBank(cfg.tof)
    grid = OccupancyGrid(arena.width, arena.height)
    collision = CollisionRecord()

    det = cfg.detector
    ledger = DetectionLedger() if det is not None else None
    if det is not None:
        frame_k = 1
        frame_t = 1.0 / det.fps
        frame_due = math.ceil(frame_t / dt - _EPS) if frame_t <= end_t + _EPS else -1
    else:
        frame_due = -1

    hasher = hashlib.blake2b(digest_size=8)
    lines: list[str] | None = [TRAJECTORY_HEADER + "\n"] if keep_trajectory else None
    hasher.update((TRAJECTORY_HEADER + "\n").encode("ascii"))
    xs = f"{state.x:.6f}"
    ys = f"{state.y:.6f}"
    hs = f"{state.heading:.6f}"

    for i in range(n_ticks):
        t_i = i * dt
        frame = bank.sample(arena, state, noise_rng, t_i)
        ps, sp = policy_step(cfg.policy, ps, frame, state.heading, dt,
                             cfg.policy_cfg, policy_rng)
        row = f"{t_i:.6f},{xs},{ys},{hs},{sp.v:.6f},{sp.omega:.6f}\n"
        hasher.update(row.encode("ascii"))
        if lines is not None:
            lines.append(row)
        state = step(state, sp, dt)
        xs = f"{state.x:.6f}"
        ys = f"{state.y:.6f}"
        hs = f"{state.heading:.6f}"
        xq = float(xs)
        yq = float(ys)
        if arena.disc_blocked(state.x, state.y, cfg.drone_radius):
            collision = CollisionRecord(True, state.t, state.x, state.y)
            grid.mark(min(max(xq, 0.0), arena.width), min(max(yq, 0.0), arena.height), dt)
            break
        grid.mark(xq, yq, dt)
        while frame_due == i + 1:
            visible = objects_in_fov(arena, state, cfg.camera)
            attempt_detection(det, visible, ledger, frame_t, detect_rng)
            frame_k += 1
            frame_t = frame_k / det.fps
            frame_due = math.ceil(frame_t / dt - _EPS) if frame_t <= end_t + _EPS else -1

    terminal = f"{state.t:.6f},{xs},{ys},{hs},0.000000,0.000000\n"
    hasher.update(terminal.encode("ascii"))
    if lines is not None:
        lines.append(terminal)

    rate = None
    if ledger is not None and len(arena.objects) > 0:
        rate = detection_rate(ledger, len(arena.objects))
    return RunResult(
        coverage=grid.coverage(),
        grid=grid,
        ledger=ledger,
        detection_rate=rate,
        collision=collision,
        digest=int.from_bytes(hasher.digest(), "big"),
        energy=mission_energy(EnergyModel(), state.t),
        elapsed=state.t,
        trajectory=lines,
    )


@dataclass
class SweepSpec:
    policies: tuple[str, ...] = POLICY_KINDS
    speeds: tuple[float, ...] = (0.1, 0.5, 1.0)
    detectors: tuple[str | None, ...] = (None,)
    runs_per_config: int = 5
    base_seed: int = 42
    duration: float = 180.0

    def validate(self) -> None:
        if not self.policies or not self.speeds or not self.detectors:
            raise SimError("sweep needs at least one policy, speed and detector entry")
        for p in self.policies:
            if p not in POLICY_KINDS:
                raise SimError(f"unknown policy {p!r}")
        if any(s <= 0.0 for s in self.speeds):
            raise SimError("speeds must be > 0")
        if self.runs_per_config < 1:
            raise SimError("runs_per_config must be >= 1")

    def configurations(self):
        for policy in self.policies:
            for speed in self.speeds:
                for det in self.detectors:
                    yield policy, speed, det


@dataclass(frozen=True)
class SweepRow:
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


@dataclass
class SweepResult:
    rows: list[SweepRow]
    # (policy, speed, detector) -> per-run flat dwell arrays, for mean heatmaps
    dwell: dict[tuple[str, float, str | None], list[list[float]]]
    grid_rows: int
    grid_cols: int


def run_seed_for(base_seed: int, policy: str, speed: float, detector: str | None,
                 run_idx: int) -> int:
    """Seed for one sweep run: base seed mixed with the configuration label
    and the run index (splitmix64 chain)."""
    label = f"{policy}|{speed:.6f}|{detector or 'none'}"
    return derive_seed(base_seed, label, run_idx)


def _make_run_config(template: RunConfig, policy: str, speed: float,
                     det: str | None, seed: int, duration: float) -> RunConfig:
    from .detection import DETECTORS  # local to keep module import light

    detector = DETECTORS[det] if det is not None else None
    return replace(
        template,
        policy=policy,
        policy_cfg=replace(template.policy_cfg, cruise_speed=speed),
        detector=detector,
        seed=seed,
        duration=duration,
    )


def _sweep_task(args):
    cfg, policy, speed, det, run_idx = args
    try:
        res = run_single(cfg)
    except SimError as exc:
        raise SimError(f"run failed for {policy}/{speed}/{det or 'none'} "
                       f"run {run_idx}: {exc}") from exc
    row = SweepRow(policy, speed, det, run_idx, cfg.seed, res.coverage,
                   res.detection_rate, res.collision.occurred,
                   res.energy["total"], res.digest)
    return row, res.grid.dwell, res.grid.rows, res.grid.cols


def run_sweep(spec: SweepSpec, template: RunConfig | None = None,
              jobs: int = 1) -> SweepResult:
    """Execute the full sweep; per-run results are independent of the
    execution order or degree of parallelism."""
    spec.validate()
    if template is None:
        template = RunConfig(arena=default_arena())
    tasks = []
    for policy, speed, det in spec.configurations():
        for run_idx in range(spec.runs_per_config):
            seed = run_seed_for(spec.base_seed, policy, speed, det, run_idx)
            cfg = _make_run_config(template, policy, speed, det, seed, spec.duration)
            tasks.append((cfg, policy, speed, det, run_idx))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_sweep_task, tasks))
    else:
        outcomes = [_sweep_task(task) for task in tasks]

    rows = []
    dwell: dict[tuple[str, float, str | None], list[list[float]]] = {}
    grid_rows = grid_cols = 0
    for row, cells, g_rows, g_cols in outcomes:
        rows.append(row)
        dwell.setdefault((row.policy, row.speed, row.detector), []).append(list(cells))
        grid_rows, grid_cols = g_rows, g_cols
    return SweepResult(rows=rows, dwell=dwell, grid_rows=grid_rows, grid_cols=grid_cols)


@dataclass(frozen=True)
class AggregateRow:
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

    Requires at least one detector-equipped configuration with defined
    rates (an arena without objects has no detection rate).
    """
    with_det = [r for r in rows if r.detector is not None]
    if not with_det:
        raise SimError("no detector-equipped runs in this sweep")
    if any(r.detection_rate is None for r in with_det):
        raise SimError("detection rate undefined: the arena has no objects")
    matrix: dict[tuple[str, float], dict[str, float]] = {}
    for agg in aggregate(with_det):
        matrix.setdefault((agg.detector, agg.speed), {})[agg.policy] = agg.rate_mean
    return matrix
