import functools
import math
import pickle

import pytest

from exploresim.arena import Arena, TargetObject, Vec2, default_arena
from exploresim.detection import DETECTORS, DetectorModel
from exploresim.errors import FrozenError, ValidationError
from exploresim.harness import RunConfig, SweepSpec
from exploresim.kinds import POINT, Model
from exploresim.metrics import EnergyModel
from exploresim.policies import PolicyConfig
from exploresim.sensing import CameraModel, TofConfig

ROOM = default_arena()

# each config model, one of its instances, and a field value its checks refuse
MODELS = [
    (RunConfig(arena=ROOM), "duration", -1.0),
    (PolicyConfig(), "cruise_speed", 2.0),
    (TofConfig(), "rate_hz", 0.0),
    (CameraModel(), "fov", 4.0),
    (DETECTORS["ssd-1.0"], "p_detect", 1.5),
    (SweepSpec(), "runs_per_config", 0),
    (TargetObject(1, "bottle", Vec2(1.0, 1.0)), "cls", "cup"),
    (EnergyModel(), "p_motors", 5.0),
    (Arena(6.5, 5.5, obstacles=[(1.0, 1.0, 2.0, 2.0)], objects=ROOM.objects), "width", 0.0),
]
IDS = [model.__class__.__name__ for model, *_ in MODELS]


def test_every_config_model_is_a_model():
    assert {model.__class__ for model, *_ in MODELS} == set(Model.__subclasses__())


def test_fields_are_the_annotations_in_order():
    assert TofConfig.FIELDS == ("max_range", "rate_hz", "noise_sigma")
    assert RunConfig.FIELDS[:3] == ("arena", "policy", "policy_cfg")

    class Noisy(TofConfig):
        noise_sigma: float = 0.1
        bias: float = 0.0

    # a base's fields first; a redefined field keeps its place
    assert Noisy.FIELDS == ("max_range", "rate_hz", "noise_sigma", "bias")
    assert Noisy().noise_sigma == 0.1


def test_made_by_position_or_keyword():
    assert TofConfig(3.0, 10.0) == TofConfig(max_range=3.0, rate_hz=10.0)
    assert TofConfig(3.0, noise_sigma=0.01) == TofConfig(3.0, 20.0, 0.01)
    det = DetectorModel("custom", 2.0, p_detect=0.5)
    assert (det.name, det.fps, det.p_detect) == ("custom", 2.0, 0.5)
    assert TargetObject(id=1, cls="bottle", pos=Vec2(1.0, 1.0)).radius == 0.05


def test_default_model_fields_are_shared():
    # the models are immutable, so one default instance serves every config
    a, b = RunConfig(arena=ROOM), RunConfig(arena=ROOM, seed=3)
    assert a.policy_cfg is b.policy_cfg and a.tof is b.tof and a.camera is b.camera


@pytest.mark.parametrize("make, message", [
    (lambda: DetectorModel("custom", 2.0), "missing field 'p_detect'"),
    (lambda: RunConfig(), "missing field 'arena'"),
    (lambda: TofConfig(speed=1.0), "has no field 'speed'"),
    (lambda: TofConfig(3.0, max_range=3.0), "got field 'max_range' twice"),
    (lambda: TofConfig(1.0, 2.0, 0.0, 4.0), "takes at most 3 fields by position, got 4"),
    (lambda: PolicyConfig(cruise=0.5), "has no field 'cruise'"),
])
def test_a_missing_unknown_or_repeated_field_is_a_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


@pytest.mark.parametrize("model, field, bad", MODELS, ids=IDS)
def test_replace_makes_a_checked_copy(model, field, bad):
    if isinstance(model, EnergyModel):  # checks the sum of its parts, not a field
        with pytest.raises(ValueError, match="component powers sum to"):
            model.replace(**{field: bad})
    else:
        with pytest.raises(ValidationError) as err:
            model.replace(**{field: bad})
        assert err.value.path == field
    copy = model.replace()
    assert copy == model and copy is not model
    with pytest.raises(TypeError, match="has no field 'colour'"):
        model.replace(colour="red")


def test_replace_changes_only_what_it_names():
    cfg = RunConfig(arena=ROOM, seed=5)
    moved = cfg.replace(duration=60.0, start=(1.0, 1.0, 0.0))
    assert (moved.duration, moved.start, moved.seed) == (60.0, (1.0, 1.0, 0.0), 5)
    assert (cfg.duration, cfg.start) == (180.0, None)


@pytest.mark.parametrize("model, field, bad", MODELS, ids=IDS)
def test_frozen(model, field, bad):
    before = repr(model)
    with pytest.raises(FrozenError, match=f"cannot assign to field '{field}'"):
        setattr(model, field, bad)
    with pytest.raises(FrozenError, match=f"cannot delete field '{field}'"):
        delattr(model, field)
    with pytest.raises(AttributeError):  # FrozenError is one
        model.colour = "red"
    assert repr(model) == before


@pytest.mark.parametrize("model, field, bad", MODELS, ids=IDS)
def test_equality_and_hash_go_by_value(model, field, bad):
    twin = model.__class__(**{f: getattr(model, f) for f in model.FIELDS})
    assert twin == model and hash(twin) == hash(model) and len({twin, model}) == 1
    assert model != (*(getattr(model, f) for f in model.FIELDS),)


# each model made from lists and ints, and from the tuples and floats its
# kinds turn them into
LOOSE_AND_STRICT = [
    (RunConfig, dict(arena=ROOM, start=[1, 1, 0], duration=60),
     dict(arena=ROOM, start=(1.0, 1.0, 0.0), duration=60.0)),
    (PolicyConfig, dict(cruise_speed=1, trigger_dist=2), dict(cruise_speed=1.0, trigger_dist=2.0)),
    (TofConfig, dict(max_range=3, rate_hz=10, noise_sigma=0),
     dict(max_range=3.0, rate_hz=10.0, noise_sigma=0.0)),
    (CameraModel, dict(fov=1, max_detect_range=3), dict(fov=1.0, max_detect_range=3.0)),
    (DetectorModel, dict(name="x", fps=2, p_detect=1), dict(name="x", fps=2.0, p_detect=1.0)),
    (SweepSpec, dict(policies=["spiral"], speeds=[1], detectors=["ssd-1.0", None], duration=60),
     dict(policies=("spiral",), speeds=(1.0,), detectors=("ssd-1.0", None), duration=60.0)),
    (TargetObject, dict(id=1, cls="bottle", pos=[1, 4], radius=1),
     dict(id=1, cls="bottle", pos=Vec2(1.0, 4.0), radius=1.0)),
    (EnergyModel, dict(p_motors=7, p_cf=1, p_aideck=0, p_multiranger=0, p_total=8),
     dict(p_motors=7.0, p_cf=1.0, p_aideck=0.0, p_multiranger=0.0, p_total=8.0)),
    (Arena, dict(width=6, height=5, obstacles=[[4, 1, 5, 2]],
                 objects=[TargetObject(1, "bottle", [1, 4])]),
     dict(width=6.0, height=5.0, obstacles=((4.0, 1.0, 5.0, 2.0),),
          objects=(TargetObject(1, "bottle", Vec2(1.0, 4.0)),))),
]


def test_every_model_has_a_loose_and_a_strict_form():
    assert [cls for cls, *_ in LOOSE_AND_STRICT] == [model.__class__ for model, *_ in MODELS]


@pytest.mark.parametrize("cls, loose, strict", LOOSE_AND_STRICT, ids=IDS)
def test_a_model_keeps_what_its_kinds_return(cls, loose, strict):
    a, b = cls(**loose), cls(**strict)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1 and repr(a) == repr(b)
    for name in cls.FIELDS:
        assert type(getattr(a, name)) is type(getattr(b, name)), name


def test_a_model_checks_its_fields_before_its_own_checks():
    class Bare(TofConfig):
        origin: tuple[float, float] = (0.0, 0.0)

        KINDS = {**TofConfig.KINDS, "origin": POINT}

        def __post_init__(self):
            pass  # no check of its own, and no call that checks a field

    # each field in KINDS order, with the field name as the error's path
    for bad, path in ((dict(rate_hz=0.0), "rate_hz"), (dict(origin="x"), "origin"),
                      (dict(origin="x", max_range=-1.0), "max_range")):
        with pytest.raises(ValidationError) as err:
            Bare(**bad)
        assert err.value.path == path
    moved = Bare(origin=[1, 2], max_range=3)
    assert moved.origin == (1.0, 2.0) and type(moved.origin) is tuple
    assert type(moved.max_range) is float and hash(moved) == hash(Bare(3.0, origin=(1.0, 2.0)))
    # a bad field is named before a check across fields is made
    with pytest.raises(ValidationError) as err:
        EnergyModel(p_motors=-1.0)
    assert err.value.path == "p_motors"


def test_models_of_different_classes_are_unequal():
    class Other(TofConfig):
        pass

    assert Other() != TofConfig() and TofConfig() == TofConfig()
    assert TofConfig(rate_hz=10.0) != TofConfig()
    assert DETECTORS["ssd-1.0"] != DETECTORS["ssd-1.0"].replace(fps=1.7)


def test_policy_config_caches_stay_out_of_eq_hash_and_repr():
    cfg, fresh = PolicyConfig(), PolicyConfig()
    # set when the config is made, before any read, as plain attributes
    assert {"cruise", "turns", "scan_records"} <= vars(cfg).keys()
    assert cfg.cruise is cfg.cruise and cfg.turns is cfg.turns
    assert cfg.scan_records == 8 and cfg.cruise == (0.5, 0.0)
    assert cfg.turns == ((0.0, 1.5), (0.0, -1.5))
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
    for name in ("cruise", "turns", "scan_records"):
        assert name not in PolicyConfig.FIELDS and f"{name}=" not in repr(cfg)
    # a copy computes its own
    copy = cfg.replace(cruise_speed=0.2, turn_rate=2.0, scan_step=math.pi / 2.0)
    assert copy.cruise == (0.2, 0.0) and copy.turns == ((0.0, 2.0), (0.0, -2.0))
    assert copy.scan_records == 4 and cfg.cruise == (0.5, 0.0)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_model_carries_a_cached_property():
    # a value cached on first read writes the instance's __dict__, and every
    # later read of a field of that instance is several times slower
    models = list(_subclasses(Model))
    assert PolicyConfig in models
    for model in models:
        for klass in model.__mro__:
            cached = [name for name, value in vars(klass).items()
                      if isinstance(value, functools.cached_property)]
            assert not cached, f"{klass.__name__} caches {cached}"


def test_a_model_survives_pickling():
    # run_batch ships configs to its worker processes
    cfg = RunConfig(arena=ROOM, detector=DETECTORS["ssd-0.5"], seed=9)
    cfg.policy_cfg.turns
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and repr(back) == repr(cfg)
    with pytest.raises(FrozenError):
        back.seed = 1
