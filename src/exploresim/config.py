"""Config file handling: defaults, file loading, dotted-key overrides.

The config file (JSON) is the single source of truth for a mission or
sweep; command-line flags act as overrides on top of it.  Every leaf has
a documented default; unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import copy
import json
import math

from .arena import Arena, default_arena, load_arena, load_arena_file
from .detection import DETECTORS, DetectorModel
from .errors import ValidationError
from .harness import RunConfig, SweepSpec
from .policies import POLICY_KINDS, PolicyConfig
from .sensing import CameraModel, TofConfig

SCHEMA_VERSION = 1

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    # None -> built-in default room; or a path string; or an inline arena document
    "arena": None,
    "run": {
        "duration": 180.0,
        "seed": 42,
        "start": None,  # [x, y, heading_rad]; None -> room center, heading 0
        "control_dt": 0.02,
        "drone_radius": 0.05,
        "v_max": 1.0,
        "omega_max": 2.0,
    },
    "policy": {
        "kind": "pseudo-random",
        "cruise_speed": 0.5,
        "trigger_dist": 1.0,
        "wall_standoff": 0.5,
        "spiral_step": 0.5,
        "scan_step_deg": 45.0,
        "leg_max": 2.0,
        "turn_rate": 1.5,
        "k_wall": 1.5,
        "kd_wall": 3.5,
        "k_heading": 2.0,
        "follow_side": "left",
        "corner_margin": 0.1,
        "align_tol": 0.05,
    },
    "tof": {"max_range": 4.0, "rate_hz": 20.0, "noise_sigma": 0.0},
    # fov_deg None keeps the model default (1.1 rad)
    "camera": {"fov_deg": None, "max_range": 2.0},
    # model None -> no detector; fps/p_detect override the named model's values
    "detector": {"model": None, "fps": None, "p_detect": None},
    "sweep": {
        "policies": list(POLICY_KINDS),
        "speeds": [0.1, 0.5, 1.0],
        "detectors": [],  # empty -> exploration only
        "runs_per_config": 5,
        "base_seed": 42,
        "duration": 180.0,
    },
    "heatmap": {"saturation_s": 18.0},
}

# dotted key -> one-line description shown by --help
KEY_DOCS = {
    "arena": "arena document path or inline object (default: built-in 6.5x5.5 m room, 6 objects)",
    "run.duration": "mission length in seconds",
    "run.seed": "run seed (64-bit)",
    "run.start": "[x, y, heading_rad] start pose; null starts at the room center",
    "run.control_dt": "control tick in seconds (50 Hz default)",
    "run.drone_radius": "airframe disc radius in meters",
    "run.v_max": "forward speed command limit, m/s",
    "run.omega_max": "yaw rate command limit, rad/s",
    "policy.kind": f"exploration policy: {', '.join(POLICY_KINDS)}",
    "policy.cruise_speed": "mean flight speed, m/s",
    "policy.trigger_dist": "front distance triggering avoidance, m",
    "policy.wall_standoff": "wall-following lateral distance, m",
    "policy.spiral_step": "spiral per-lap offset increment, m",
    "policy.scan_step_deg": "rotate-and-measure angular spacing, degrees",
    "policy.leg_max": "rotate-and-measure longest travel leg, m",
    "policy.turn_rate": "in-place turn rate, rad/s",
    "policy.k_wall": "wall tracking proportional gain, rad/s per m",
    "policy.kd_wall": "wall tracking derivative gain, rad per m",
    "policy.k_heading": "travel-leg heading hold gain, 1/s",
    "policy.follow_side": "side sensor used to track the wall: left or right",
    "policy.corner_margin": "corner trigger margin over the standoff, m",
    "policy.align_tol": "in-place turn completion tolerance, rad",
    "tof.max_range": "ranging saturation distance, m",
    "tof.rate_hz": "ranging refresh rate, Hz",
    "tof.noise_sigma": "additive Gaussian ranging noise sigma, m (0 = off)",
    "camera.fov_deg": "camera horizontal field of view, degrees (null = 1.1 rad)",
    "camera.max_range": "camera usable detection range, m",
    "detector.model": f"detector model: {', '.join(DETECTORS)} (null = none)",
    "detector.fps": "override: inference rate, frames/s",
    "detector.p_detect": "override: per-frame detection probability",
    "sweep.policies": "policies included in the sweep",
    "sweep.speeds": "flight speeds included in the sweep, m/s",
    "sweep.detectors": "detector models included in the sweep (empty = none)",
    "sweep.runs_per_config": "runs per configuration",
    "sweep.base_seed": "sweep base seed; per-run seeds are derived from it",
    "sweep.duration": "sweep mission length in seconds",
    "heatmap.saturation_s": "dwell that saturates the heatmap gray scale, s",
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(here, "unknown config key")
        if isinstance(base[key], dict) and key != "arena":
            if not isinstance(value, dict):
                raise ValidationError(here, "expected an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None) -> dict:
    """Defaults merged with an optional JSON config file."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(str(path), f"not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ValidationError(str(path), "top level must be an object")
    version = user.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError("schema_version", f"unsupported version {version}")
    return _merge(DEFAULT_CONFIG, user)


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON or string."""
    cfg = copy.deepcopy(cfg)
    for item in assignments:
        if "=" not in item:
            raise ValidationError(item, "override must look like key.path=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ValidationError(key, "unknown config key")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ValidationError(key, "unknown config key")
        if isinstance(node[leaf], dict) and not isinstance(value, dict) and leaf != "arena":
            raise ValidationError(key, "cannot assign a scalar to a config section")
        node[leaf] = value
    return cfg


def build_arena(cfg: dict) -> Arena:
    source = cfg["arena"]
    if source is None:
        return default_arena()
    if isinstance(source, str):
        return load_arena_file(source)
    return load_arena(source)


def _number(value, path: str, kind=float):
    """``kind(value)``; a value that does not convert is a
    :class:`ValidationError` naming its config key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(path, f"expected a number, got {value!r}") from None


def build_policy_config(cfg: dict, cruise_speed=None) -> PolicyConfig:
    p = cfg["policy"]
    try:
        return PolicyConfig(
            cruise_speed=_number(cruise_speed if cruise_speed is not None else p["cruise_speed"],
                                 "policy.cruise_speed"),
            trigger_dist=_number(p["trigger_dist"], "policy.trigger_dist"),
            wall_standoff=_number(p["wall_standoff"], "policy.wall_standoff"),
            spiral_step=_number(p["spiral_step"], "policy.spiral_step"),
            scan_step=math.radians(_number(p["scan_step_deg"], "policy.scan_step_deg")),
            leg_max=_number(p["leg_max"], "policy.leg_max"),
            turn_rate=_number(p["turn_rate"], "policy.turn_rate"),
            k_wall=_number(p["k_wall"], "policy.k_wall"),
            kd_wall=_number(p["kd_wall"], "policy.kd_wall"),
            k_heading=_number(p["k_heading"], "policy.k_heading"),
            follow_side=p["follow_side"],
            corner_margin=_number(p["corner_margin"], "policy.corner_margin"),
            align_tol=_number(p["align_tol"], "policy.align_tol"),
        )
    except ValueError as exc:
        raise ValidationError("policy", str(exc)) from None


def build_detector(cfg: dict) -> DetectorModel | None:
    d = cfg["detector"]
    name = d["model"]
    if name is not None and name not in DETECTORS:
        raise ValidationError(
            "detector.model", f"unknown model {name!r}; expected one of {', '.join(DETECTORS)}"
        )
    base = DETECTORS.get(name)
    fps = d["fps"]
    p_detect = d["p_detect"]
    if base is None and fps is None and p_detect is None:
        return None
    try:
        return DetectorModel(
            name=name or "custom",
            fps=_number(fps, "detector.fps") if fps is not None else base.fps,
            p_detect=(_number(p_detect, "detector.p_detect") if p_detect is not None
                      else base.p_detect),
            params_m=base.params_m if base else 0.0,
            mmacs=base.mmacs if base else 0.0,
        )
    except (AttributeError, ValueError) as exc:
        raise ValidationError("detector", f"incomplete or invalid detector spec ({exc})") from None


def build_camera(cfg: dict) -> CameraModel:
    c = cfg["camera"]
    fov = (math.radians(_number(c["fov_deg"], "camera.fov_deg")) if c["fov_deg"] is not None
           else CameraModel.fov)
    try:
        return CameraModel(fov=fov, max_detect_range=_number(c["max_range"], "camera.max_range"))
    except ValueError as exc:
        raise ValidationError("camera", str(exc)) from None


def build_tof(cfg: dict) -> TofConfig:
    t = cfg["tof"]
    try:
        return TofConfig(max_range=_number(t["max_range"], "tof.max_range"),
                         rate_hz=_number(t["rate_hz"], "tof.rate_hz"),
                         noise_sigma=_number(t["noise_sigma"], "tof.noise_sigma"))
    except ValueError as exc:
        raise ValidationError("tof", str(exc)) from None


def build_run_config(cfg: dict, arena: Arena | None = None) -> RunConfig:
    r = cfg["run"]
    start = r["start"]
    if start is not None:
        if not isinstance(start, (list, tuple)) or len(start) != 3:
            raise ValidationError("run.start", "must be [x, y, heading_rad]")
        start = tuple(_number(v, "run.start") for v in start)
    return RunConfig(
        arena=arena if arena is not None else build_arena(cfg),
        policy=cfg["policy"]["kind"],
        policy_cfg=build_policy_config(cfg),
        tof=build_tof(cfg),
        camera=build_camera(cfg),
        detector=build_detector(cfg),
        duration=_number(r["duration"], "run.duration"),
        seed=_number(r["seed"], "run.seed", int),
        start=start,
        control_dt=_number(r["control_dt"], "run.control_dt"),
        drone_radius=_number(r["drone_radius"], "run.drone_radius"),
        v_max=_number(r["v_max"], "run.v_max"),
        omega_max=_number(r["omega_max"], "run.omega_max"),
    )


def build_sweep_spec(cfg: dict) -> SweepSpec:
    s = cfg["sweep"]
    for key in ("policies", "speeds", "detectors"):
        if not isinstance(s[key], list):
            raise ValidationError(f"sweep.{key}", "must be a list")
    detectors = tuple(s["detectors"]) if s["detectors"] else (None,)
    for det in detectors:
        if det is not None and det not in DETECTORS:
            raise ValidationError(
                "sweep.detectors", f"unknown model {det!r}; expected one of {', '.join(DETECTORS)}"
            )
    return SweepSpec(
        policies=tuple(s["policies"]),
        speeds=tuple(_number(v, "sweep.speeds") for v in s["speeds"]),
        detectors=detectors,
        runs_per_config=_number(s["runs_per_config"], "sweep.runs_per_config", int),
        base_seed=_number(s["base_seed"], "sweep.base_seed", int),
        duration=_number(s["duration"], "sweep.duration"),
    )
