"""Config file handling: defaults, file loading, dotted-key overrides.

The config file (JSON) is the single source of truth for a mission or
sweep; command-line flags act as overrides on top of it.  :data:`LEAVES`
defines every key once: the defaults, the ``--help`` key list, conversion,
checks and the builders derive from it.  Unknown keys are rejected.
"""

from __future__ import annotations

import json

from .arena import Arena, default_arena, load_arena, load_arena_file
from .detection import DETECTORS, DetectorModel
from .errors import ValidationError
from .harness import DETECTOR_NAME, RunConfig, SweepSpec
from .kinds import ARENA, INTEGER, POSITIVE, Kind, in_degrees, nullable
from .metrics import HEATMAP_SATURATION_S
from .policies import POLICY_KINDS, PolicyConfig
from .sensing import CameraModel, TofConfig

SCHEMA_VERSION = 1

_NO_DEFAULT = object()  # a Leaf given no default takes its field's

# the model object each section of the config document builds
_MODELS = {"run": RunConfig, "policy": PolicyConfig, "tof": TofConfig,
           "camera": CameraModel, "detector": DetectorModel, "sweep": SweepSpec}


class Leaf:
    """One config key, its ``--help`` line, kind and default.  Unless given
    a ``kind``, it sets ``field`` (default: its last name) of ``target``
    (default: its section's model) and takes that field's kind and default.
    ``degrees``: the key is in degrees, the field in radians.  ``optional``:
    null keeps the model's own value."""

    def __init__(self, key: str, doc: str, field: str | None = None, *,
                 target: type | None = None, kind: Kind | None = None,
                 default=_NO_DEFAULT, degrees: bool = False, optional: bool = False):
        section, _, name = key.rpartition(".")
        self.key, self.doc = key, doc
        self.target = None if kind else target or _MODELS[section]
        self.field = None if kind else field or name
        kind = kind or self.target.KINDS[self.field]
        kind = in_degrees(kind) if degrees else kind
        self.kind = nullable(kind) if optional else kind
        if default is _NO_DEFAULT:
            default = getattr(self.target, self.field)
        self.default = list(default) if isinstance(default, tuple) else default
        # an error names the key, and the field when the key sets one
        self.note = f" (sets {self.target.__name__}.{self.field})" if self.target else ""


LEAVES = (
    Leaf("arena", "arena document path or inline object (default: built-in 6.5x5.5 m room, "
         "6 objects)", kind=ARENA, default=None),
    Leaf("run.duration", "mission length in seconds"),
    Leaf("run.seed", "run seed (64-bit)", default=42),
    Leaf("run.start", "[x, y, heading_rad] start pose; null starts at the room center"),
    Leaf("run.control_dt", "control tick in seconds (50 Hz default)"),
    Leaf("run.drone_radius", "airframe disc radius in meters"),
    Leaf("policy.kind", f"exploration policy: {', '.join(POLICY_KINDS)}", "policy",
         target=RunConfig),
    Leaf("policy.cruise_speed", "mean flight speed, m/s"),
    Leaf("policy.trigger_dist", "front distance triggering avoidance, m"),
    Leaf("policy.wall_standoff", "wall-following lateral distance, m"),
    Leaf("policy.spiral_step", "spiral per-lap offset increment, m"),
    Leaf("policy.scan_step_deg", "rotate-and-measure angular spacing, degrees", "scan_step",
         default=45.0, degrees=True),
    Leaf("policy.leg_max", "rotate-and-measure longest travel leg, m"),
    Leaf("policy.turn_rate", "in-place turn rate, rad/s"),
    Leaf("policy.k_wall", "wall tracking proportional gain, rad/s per m"),
    Leaf("policy.kd_wall", "wall tracking derivative gain, rad per m"),
    Leaf("policy.k_heading", "travel-leg heading hold gain, 1/s"),
    Leaf("policy.follow_side", "side sensor used to track the wall: left or right"),
    Leaf("policy.corner_margin", "corner trigger margin over the standoff, m"),
    Leaf("policy.align_tol", "in-place turn completion tolerance, rad"),
    Leaf("tof.max_range", "ranging saturation distance, m"),
    Leaf("tof.rate_hz", "ranging refresh rate, Hz"),
    Leaf("tof.noise_sigma", "additive Gaussian ranging noise sigma, m (0 = off)"),
    Leaf("camera.fov_deg", "camera horizontal field of view, degrees (null = 1.1 rad)", "fov",
         default=None, degrees=True, optional=True),
    Leaf("camera.max_range", "camera usable detection range, m", "max_detect_range"),
    Leaf("detector.model", f"detector model: {', '.join(DETECTORS)} (null = none)",
         kind=DETECTOR_NAME, default=None),
    Leaf("detector.fps", "override: inference rate, frames/s", default=None, optional=True),
    Leaf("detector.p_detect", "override: per-frame detection probability",
         default=None, optional=True),
    Leaf("sweep.policies", "policies included in the sweep"),
    Leaf("sweep.speeds", "flight speeds included in the sweep, m/s"),
    Leaf("sweep.detectors", "detector models included in the sweep (empty = none)"),
    Leaf("sweep.runs_per_config", "runs per configuration"),
    Leaf("sweep.base_seed", "sweep base seed; per-run seeds are derived from it"),
    Leaf("sweep.duration", "sweep mission length in seconds"),
    Leaf("heatmap.saturation_s", "dwell that saturates the heatmap gray scale, s",
         kind=POSITIVE, default=HEATMAP_SATURATION_S),
)

LEAF = {leaf.key: leaf for leaf in LEAVES}
_SECTIONS = {leaf.key.partition(".")[0] for leaf in LEAVES if "." in leaf.key}


def _assign(cfg: dict, key: str, value) -> None:
    """Set ``key`` to ``value`` in ``cfg``: a leaf, or a section given as
    an object whose entries are assigned in turn."""
    if key in LEAF:
        section, _, name = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = value
    elif key in _SECTIONS:
        if not isinstance(value, dict):
            raise ValidationError(key, "expected an object")
        for name, item in value.items():
            _assign(cfg, f"{key}.{name}", item)
    else:
        raise ValidationError(key, "unknown config key")


DEFAULT_CONFIG = {"schema_version": SCHEMA_VERSION}
for _leaf in LEAVES:
    _assign(DEFAULT_CONFIG, _leaf.key, _leaf.default)
# the defaults hold only JSON values, so each parse of this text is a deep
# copy of them, made without the copy module
_DEFAULT_TEXT = json.dumps(DEFAULT_CONFIG)


def load_config(path=None) -> dict:
    """Defaults merged with an optional JSON config file; every list and
    object in the result is the caller's own."""
    cfg = json.loads(_DEFAULT_TEXT)
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ValidationError(str(path), f"cannot read: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise ValidationError(str(path), f"not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ValidationError(str(path), "top level must be an object")
    version = INTEGER(user.pop("schema_version", SCHEMA_VERSION), "schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError("schema_version", f"unsupported version {version}")
    for key, value in user.items():
        _assign(cfg, key, value)
    return cfg


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON or string.
    Overrides replace values and never change one: ``cfg``'s sections are copied."""
    cfg = {key: dict(value) if key in _SECTIONS else value for key, value in cfg.items()}
    for item in assignments:
        if "=" not in item:
            raise ValidationError(item, "override must look like key.path=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as exc:  # not a string that failed to decode
            raise ValidationError(key.strip(), f"not valid JSON: {exc}") from None
        _assign(cfg, key.strip(), value)
    return cfg


def check_config(cfg: dict) -> dict:
    """Every leaf of ``cfg`` converted and checked, by dotted key."""
    out = {}
    for leaf in LEAVES:
        section, _, name = leaf.key.rpartition(".")
        out[leaf.key] = leaf.kind((cfg[section] if section else cfg)[name], leaf.key, leaf.note)
    return out


def build_arena(cfg: dict) -> Arena:
    source = cfg["arena"]
    try:
        if source is None:
            return default_arena()
        if isinstance(source, str):
            return load_arena_file(source)
        return load_arena(source)
    except ValidationError as exc:
        raise ValidationError("arena", str(exc)) from None
    except OSError as exc:
        raise ValidationError("arena", f"cannot read {source!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError("arena", f"{source!r} is not UTF-8: {exc}") from None


def _fields(values: dict, target: type) -> dict:
    """Keyword arguments for ``target`` from the checked values of its
    leaves; a null leaf leaves its field to the model."""
    return {leaf.field: values[leaf.key] for leaf in LEAVES
            if leaf.target is target and values[leaf.key] is not None}


def _detector(values: dict) -> DetectorModel | None:
    name = values["detector.model"]
    given = _fields(values, DetectorModel)
    if name is not None:
        return DETECTORS[name].replace(**given)
    if not given:
        return None
    for field in ("fps", "p_detect"):
        if field not in given:
            raise ValidationError(f"detector.{field}",
                                  "needed for a custom detector (detector.model is null)")
    return DetectorModel("custom", **given)


def build_run_config(cfg: dict, arena: Arena | None = None) -> RunConfig:
    values = check_config(cfg)
    return RunConfig(
        arena=arena if arena is not None else build_arena(cfg),
        policy_cfg=PolicyConfig(**_fields(values, PolicyConfig)),
        tof=TofConfig(**_fields(values, TofConfig)),
        camera=CameraModel(**_fields(values, CameraModel)),
        detector=_detector(values),
        **_fields(values, RunConfig),
    )


def build_sweep_spec(cfg: dict) -> SweepSpec:
    return SweepSpec(**_fields(check_config(cfg), SweepSpec))
