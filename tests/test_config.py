import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploresim.arena import OBJECT_CLASSES
from exploresim.cli import main
from exploresim.config import (DEFAULT_CONFIG, LEAF, apply_overrides, build_run_config,
                               build_sweep_spec, load_config)
from exploresim.detection import DETECTORS
from exploresim.errors import ValidationError
from exploresim.policies import POLICY_KINDS


def test_defaults_load_without_a_file():
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    assert cfg is not DEFAULT_CONFIG  # caller gets a private copy


@pytest.mark.parametrize("with_file", [False, True])
def test_a_loaded_config_is_private_all_the_way_down(tmp_path, with_file):
    path = None
    if with_file:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"policy": {"kind": "spiral"}}))
    defaults, fresh = json.dumps(DEFAULT_CONFIG), load_config(path)
    cfg = load_config(path)
    cfg["sweep"]["speeds"].append(2.0)  # a list the defaults hold
    cfg["run"]["seed"] = 7  # a section the defaults hold
    assert json.dumps(DEFAULT_CONFIG) == defaults
    assert load_config(path) == fresh
    assert fresh["sweep"]["speeds"] == [0.1, 0.5, 1.0] and fresh["run"]["seed"] == 42


def test_file_merge_keeps_unrelated_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"policy": {"kind": "spiral"}}))
    cfg = load_config(path)
    assert cfg["policy"]["kind"] == "spiral"
    assert cfg["policy"]["cruise_speed"] == 0.5
    assert cfg["run"]["duration"] == 180.0


def test_unknown_file_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"policy": {"pace": 1.0}}))
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert "policy.pace" in str(err.value)


def test_schema_version_checked(tmp_path):
    path = tmp_path / "cfg.json"
    # JSON true and 1.0 equal 1 in Python, but the version is the integer 1
    for version, message in ((99, "unsupported version 99"),
                             (True, "must be an integer, got True"),
                             (1.0, "must be an integer, got 1.0")):
        path.write_text(json.dumps({"schema_version": version}))
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert str(err.value) == f"schema_version: {message}"


def test_overrides_parse_json_values():
    cfg = apply_overrides(load_config(None), [
        "policy.cruise_speed=1.0",
        'sweep.detectors=["ssd-0.5"]',
        "run.start=[1.0, 2.0, 0.5]",
    ])
    assert cfg["policy"]["cruise_speed"] == 1.0
    assert cfg["sweep"]["detectors"] == ["ssd-0.5"]
    assert cfg["run"]["start"] == [1.0, 2.0, 0.5]


def test_override_unknown_key():
    with pytest.raises(ValidationError):
        apply_overrides(load_config(None), ["policy.warp=9"])


def test_override_needs_assignment():
    with pytest.raises(ValidationError):
        apply_overrides(load_config(None), ["policy.cruise_speed"])


def build_detector(cfg):
    return build_run_config(cfg).detector


def test_detector_resolution():
    cfg = load_config(None)
    assert build_detector(cfg) is None
    cfg["detector"]["model"] = "ssd-0.75"
    det = build_detector(cfg)
    assert (det.fps, det.p_detect) == (2.3, 0.48)
    cfg["detector"]["fps"] = 100.0
    det = build_detector(cfg)
    assert det.fps == 100.0 and det.p_detect == 0.48
    cfg["detector"]["model"] = None
    cfg["detector"]["p_detect"] = 1.0
    det = build_detector(cfg)
    assert det.name == "custom" and det.p_detect == 1.0


def test_detector_unknown_model():
    cfg = load_config(None)
    cfg["detector"]["model"] = "yolo"
    with pytest.raises(ValidationError):
        build_detector(cfg)


def test_incomplete_custom_detector():
    cfg = load_config(None)
    cfg["detector"]["fps"] = 5.0  # p_detect missing, no base model
    with pytest.raises(ValidationError):
        build_detector(cfg)


def test_camera_fov_degrees_conversion():
    cfg = load_config(None)
    assert build_run_config(cfg).camera.fov == 1.1  # model default when unset
    cfg["camera"]["fov_deg"] = 90.0
    assert build_run_config(cfg).camera.fov == pytest.approx(math.pi / 2)


def test_policy_scan_step_degrees_conversion():
    cfg = load_config(None)
    cfg["policy"]["scan_step_deg"] = 60.0
    assert build_run_config(cfg).policy_cfg.scan_step == pytest.approx(math.pi / 3)


def test_run_config_round_trip():
    cfg = load_config(None)
    cfg["run"]["start"] = [1.0, 1.0, 0.0]
    run_cfg = build_run_config(cfg)
    assert run_cfg.start == (1.0, 1.0, 0.0)
    assert run_cfg.policy == "pseudo-random"
    assert run_cfg.arena.width == 6.5


def test_bad_start_shape():
    cfg = load_config(None)
    cfg["run"]["start"] = [1.0, 1.0]
    with pytest.raises(ValidationError):
        build_run_config(cfg)


def test_sweep_spec_defaults_are_the_full_protocol():
    spec = build_sweep_spec(load_config(None))
    assert len(spec.policies) == 4
    assert spec.speeds == (0.1, 0.5, 1.0)
    assert {det for _, _, det in spec.configurations()} == {None}
    assert spec.runs_per_config == 5


def test_sweep_detector_validation():
    cfg = load_config(None)
    cfg["sweep"]["detectors"] = ["ssd-9000"]
    with pytest.raises(ValidationError):
        build_sweep_spec(cfg)


def test_every_leaf_key_is_documented():
    def leaves(node, prefix=""):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                yield from leaves(value, path)
            else:
                yield path

    for leaf in leaves(DEFAULT_CONFIG):
        if leaf == "schema_version":
            continue
        assert LEAF[leaf].doc, f"undocumented config key {leaf}"


# --- any value for any key: it flies, or exits 2 naming its key -----------

NUMBERS = st.integers() | st.floats()
NON_NUMBERS = st.none() | st.booleans() | st.text(max_size=6)


def json_values(numbers=NUMBERS, names=st.text(max_size=6)):
    return st.recursive(NON_NUMBERS | numbers,
                        lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(names, inner, max_size=3),
                        max_leaves=6)


def choices(options):
    return st.sampled_from(list(options)) | json_values()


def floats(lo, hi):
    return st.floats(lo, hi) | st.sampled_from([math.nan, math.inf, -math.inf])


# Keys that scale the work of a mission draw numbers from these bounded
# ranges: a run.duration near its 10^6-tick bound flies for 13 s, a small
# run.control_dt multiplies the ticks of the others, and so would any count
# of sweep runs.  Arena sizes are bounded for the same reason (the dwell
# grid grows with the room), and arena paths are plain names so no example
# reads a device file.
def _bounded(lo, hi):
    return json_values(numbers=floats(lo, hi) | st.integers(int(lo) - 1, int(hi)))


_SIZE = floats(-1.0, 10.0)


def _or_junk(strategy):
    """``strategy``, or any JSON value: bools, strings, NaN, lists, objects."""
    return strategy | json_values(numbers=_SIZE)


# an arena document: a well-formed shape whose every entry may be junk, and
# whose objects may carry an unknown key
_POINT = _or_junk(st.lists(_SIZE, min_size=2, max_size=2))
_OBSTACLE = _or_junk(st.fixed_dictionaries({"min": _POINT, "max": _POINT},
                                           optional={"size": json_values()}))
_OBJECT = _or_junk(st.fixed_dictionaries(
    {"id": _or_junk(st.integers(0, 3)), "class": choices(OBJECT_CLASSES), "pos": _POINT},
    optional={"radius": _or_junk(floats(-0.1, 0.5)), "colour": json_values()}))
_ARENA_DOC = st.fixed_dictionaries(
    {"width": _or_junk(_SIZE), "height": _or_junk(_SIZE)},
    optional={"obstacles": _or_junk(st.lists(_OBSTACLE, max_size=3)),
              "objects": _or_junk(st.lists(_OBJECT, max_size=3)),
              "extra": json_values()})

VALUES = {
    "run.duration": _bounded(-1.0, 2.0) | st.sampled_from([0.02, 0.5, 1.0, 2.0]),
    "run.control_dt": _bounded(-1.0, 2.0) | st.sampled_from([0.01, 0.05, 0.1, 0.25, 1.0]),
    "sweep.duration": _bounded(-1.0, 2.0) | st.sampled_from([0.5, 1.0, 2.0]),
    "sweep.runs_per_config": st.integers(-1, 2) | json_values(numbers=st.integers(-1, 2)
                                                              | st.floats()),
    "sweep.policies": st.lists(choices(POLICY_KINDS), max_size=2) | json_values(),
    "sweep.speeds": st.lists(floats(-1.0, 2.0), max_size=2) | json_values(),
    "sweep.detectors": st.lists(choices(DETECTORS) | st.none(), max_size=2) | json_values(),
    "arena": (st.none() | st.text("abc.", max_size=6) | _ARENA_DOC
              | json_values(numbers=_SIZE, names=st.sampled_from(["width", "height", "x"]))),
    "run.start": st.lists(floats(-1.0, 7.0), min_size=3, max_size=3) | json_values(),
    "policy.kind": choices(POLICY_KINDS),
    "policy.follow_side": choices(["left", "right"]),
    "detector.model": choices(DETECTORS),
    "run.seed": st.integers(-(1 << 65), 1 << 65) | json_values(),
    "sweep.base_seed": st.integers(-(1 << 65), 1 << 65) | json_values(),
}

# a value may also fail a check that spans two keys and names the other one
CROSS = {
    "run.control_dt": {"run.duration"},
    "run.drone_radius": {"run.start"},
    "tof.max_range": {"policy.trigger_dist"},
    "arena": {"run.start"},
}

# the key under test is assigned last, so it overrides these
ONE_SECOND_RUN = ["run", "--set", "run.duration=1", "--set", 'detector.model="ssd-1.0"']
ONE_SECOND_SWEEP = ["sweep", "--set", "sweep.runs_per_config=1", "--set", "sweep.duration=1",
                    "--set", 'sweep.policies=["pseudo-random"]', "--set", "sweep.speeds=[0.5]"]


def flies_or_names_its_key(key, value, policy):
    """``main`` with ``key`` set to ``value`` on a 1 s mission exits 0, or
    exits 2 having written nothing, naming ``key`` or a key in CROSS."""
    base = ONE_SECOND_SWEEP if key.startswith("sweep.") else ONE_SECOND_RUN
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([*base, "--out", out, "--set", f"policy.kind={policy}",
                     "--set", f"{key}={json.dumps(value)}"])
        wrote = os.listdir(out)
    if code == 0:
        return
    assert code == 2, err.getvalue()
    assert not wrote
    path = err.getvalue().removeprefix("config error: ").split(": ", 1)[0]
    assert path in {key} | CROSS.get(key, set()), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_value_for_any_key_flies_or_names_its_key(data):
    key = data.draw(st.sampled_from(list(LEAF)), label="key")
    value = data.draw(VALUES.get(key, floats(-1.0, 5.0) | json_values()), label="value")
    policy = data.draw(st.sampled_from(POLICY_KINDS), label="policy")
    flies_or_names_its_key(key, value, policy)


# the property above draws the arena key about once in 40 examples, too
# rarely to reach the entries of a document
@settings(max_examples=150, deadline=None)
@given(_ARENA_DOC, st.sampled_from(POLICY_KINDS))
def test_any_arena_document_flies_or_names_arena(doc, policy):
    flies_or_names_its_key("arena", doc, policy)
