"""Value kinds: the conversion and the range of one config value or model
field, and :class:`Model`, the base of the config models and the room.
A model names the kind of each checked field in its ``KINDS`` class
attribute; :class:`Model` checks them when it is made and keeps what
each kind returns, so a field given a list holds a tuple and one given
an int holds a float.  The config table (:mod:`exploresim.config`)
reads the same declarations, so each bound is written once.
"""

from __future__ import annotations

import math
import reprlib

from .errors import FrozenError, ValidationError


class Kind:
    """``convert`` maps a JSON value to the field's value, raising
    ``TypeError`` or ``ValueError`` when it cannot; ``test`` bounds the
    result; ``text`` says what the value must be."""

    def __init__(self, text: str, convert, test=lambda value: True):
        self.text, self.convert, self.test = text, convert, test

    def __call__(self, value, path: str, note: str = ""):
        """The converted value, or a :class:`ValidationError` naming ``path``."""
        try:
            out = self.convert(value)
            if self.test(out):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
        # reprlib bounds the echo: repr() of a deeply nested value overflows the stack
        raise ValidationError(path, f"must be {self.text}, got {reprlib.repr(value)}{note}")


def _real(value) -> float:
    # JSON true/false are Python ints; they are not numbers here
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def _items(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(value)
    return tuple(value)


POSITIVE = Kind("a positive finite number", _real, lambda x: x > 0.0 and math.isfinite(x))
NON_NEGATIVE = Kind("a finite number >= 0", _real, lambda x: x >= 0.0 and math.isfinite(x))
PROBABILITY = Kind("a number in [0, 1]", _real, lambda x: 0.0 <= x <= 1.0)
FOV = Kind("an angle in (0, pi)", _real, lambda x: 0.0 < x < math.pi)
# a finer scan records 2*pi/step ranges per revolution: 1e-6 degrees kept a
# 1 s mission busy for minutes
SCAN_STEP = Kind("a finite angle >= pi/180 (1 degree)", _real,
                 lambda x: x >= math.pi / 180.0 and math.isfinite(x))
# a mission flies duration/dt ticks: 2.2e-16 s gave a 1 s mission 4.5e15
# ticks and 5e-324 s overflowed; 1 ms is 20 times finer than the default.
# A detector frame is due at tick ceil(1 / fps / dt): 10^6 s put frame 1 at
# tick 0, which never comes; 1 s (50 times the default) puts it at tick 1
# or later for any fps <= 1000
TIME_STEP = Kind("a time step in [0.001, 1] s", _real, lambda x: 0.001 <= x <= 1.0)
# the airframe disc clears a state only if x - r >= 0, x + r <= width (and so
# for y) and its squared distance to every box is >= r^2: 1e-170 m squared to
# 0 and let the centre into a box.  From 1 mm up, x - r >= 0 gives x > 0,
# x + r <= width gives x < width (r exceeds the float spacing at any room
# side), and distance^2 >= r^2 > 0 keeps the centre out of every closed box:
# every state the flight senses from, the checked start or a cleared one,
# lies in free space, and its six-decimal coordinates inside the room
RADIUS = Kind("a finite length >= 0.001 m", _real, lambda x: 0.001 <= x < math.inf)
# the airframe's command limits: vehicle.step integrates a set-point as
# given, so a policy's cruise speed and turn rate are bounded here
SPEED = Kind("a speed in (0, 1] m/s", _real, lambda x: 0.0 < x <= 1.0)
TURN_RATE = Kind("a turn rate in (0, 2] rad/s", _real, lambda x: 0.0 < x <= 2.0)
# a room has (width / 0.5 m) x (height / 0.5 m) dwell cells: 1e300 m
# overflowed; 100 m x 100 m is 40 000 cells
MAX_ROOM_SIDE = 100.0
ROOM_SIDE = Kind(f"a length in (0, {MAX_ROOM_SIDE:g}] m", _real,
                 lambda x: 0.0 < x <= MAX_ROOM_SIDE)
# the ranging bank refreshes at most once per control tick (>= 1 ms) and the
# stock detectors run at 1.6-4.3 frames/s: tof.rate_hz=1e308 overflowed, and
# detector.fps=1e12 put its first frame at tick 0, which never comes
RATE = Kind("a rate in (0, 1000] per second", _real, lambda x: 0.0 < x <= 1000.0)
SEED = Kind("an integer in [0, 2^64)", _integer, lambda n: 0 <= n < 1 << 64)
COUNT = Kind("an integer >= 1", _integer, lambda n: n >= 1)
INTEGER = Kind("an integer", _integer)
LIST = Kind("a list", _items)


def _finite_tuple(text: str, size: int) -> Kind:
    return Kind(text, lambda v: tuple(map(_real, _items(v))),
                lambda v: len(v) == size and all(map(math.isfinite, v)))


POSE = _finite_tuple("[x, y, heading_rad], three finite numbers", 3)
POINT = _finite_tuple("[x, y], two finite numbers", 2)
BOX = _finite_tuple("[x0, y0, x1, y1], four finite numbers", 4)
ARENA = Kind("null, an arena file path or an arena object", lambda v: v,
             lambda v: v is None or isinstance(v, (str, dict)))


def choice(options) -> Kind:
    options = tuple(options)
    return Kind(f"one of {', '.join(options)}", lambda v: v, lambda v: v in options)


def nullable(kind: Kind) -> Kind:
    return Kind(f"null or {kind.text}", lambda v: None if v is None else kind.convert(v),
                lambda v: v is None or kind.test(v))


def list_of(kind: Kind, nonempty: bool = True) -> Kind:
    return Kind(f"a {'non-empty ' if nonempty else ''}list, each {kind.text}",
                lambda v: tuple(map(kind.convert, _items(v))),
                lambda items: (bool(items) or not nonempty) and all(map(kind.test, items)))


def instance_of(cls: type) -> Kind:
    """A value that is already a ``cls``, e.g. a model that a model holds."""
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    return Kind(f"{article} {cls.__name__}", lambda v: v, lambda v: isinstance(v, cls))


def in_degrees(kind: Kind) -> Kind:
    """``kind`` of a field in radians, for a value given in degrees."""
    return Kind(f"{kind.text} once converted from degrees to radians",
                lambda v: kind.convert(math.radians(_real(v))), kind.test)


class Fieldwise:
    """Equality and ``repr`` by the values of ``FIELDS``, as for a
    dataclass: equal only to an instance of the same class, and shown as
    ``Name(field=value, ...)``.  The base of :class:`Model` and of
    ``vehicle.State``."""

    __slots__ = ()
    FIELDS = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self.FIELDS] == [getattr(other, f) for f in self.FIELDS]

    def __repr__(self) -> str:
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.FIELDS)
        return f"{self.__class__.__qualname__}({values})"


_MISSING = object()


class Model(Fieldwise):
    """An immutable config model, checked when made.

    Its fields (``FIELDS``) are the names its class annotates, a base's
    first; a class attribute of the same name is the field's default.  It
    is made from field values by position or keyword.  Each field named
    in ``KINDS`` is checked, in ``KINDS`` order, and keeps the value its
    kind returns; the error's path is the field name
    (:class:`ValidationError` is a ``ValueError``).  Only then does
    ``__post_init__`` make the checks across fields.  It takes no
    assignment after.  Equality, hash and ``repr`` go by the
    field values, as a frozen dataclass's do; :meth:`replace` makes a
    changed, checked copy.  Nothing is generated at import.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.FIELDS = tuple(dict.fromkeys(name for c in reversed(cls.__mro__)
                                         for name in c.__dict__.get("__annotations__", ())))
        # each field's default, or _MISSING
        cls._DEFAULTS = {name: getattr(cls, name, _MISSING) for name in cls.FIELDS}

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        if len(args) > len(cls.FIELDS):
            raise TypeError(f"{cls.__name__}() takes at most {len(cls.FIELDS)} fields "
                            f"by position, got {len(args)}")
        values = dict(cls._DEFAULTS)
        values.update(zip(cls.FIELDS, args))
        for name, value in kwargs.items():
            if name not in values:
                raise TypeError(f"{cls.__name__}() has no field {name!r}")
            if name in cls.FIELDS[:len(args)]:
                raise TypeError(f"{cls.__name__}() got field {name!r} twice")
            values[name] = value
        for name, value in values.items():
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        for name, kind in cls.KINDS.items():
            values[name] = kind(values[name], name)
        for name, value in values.items():
            # not self.__dict__[name]: a dict made from the instance's inline
            # values makes every later read of a field about four times slower
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """The checks across fields, made once each field is checked."""

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.FIELDS))

    def replace(self, **changes):
        """A copy with ``changes`` made to its fields, checked as it is made."""
        return self.__class__(**{**{f: getattr(self, f) for f in self.FIELDS}, **changes})
