"""Range and camera sensing models.

Four single-beam ranging sensors (front, left, right, back) return
line-of-sight distances saturated at ``max_range``.  They refresh on
their own clock, slower than the control loop, with a zero-order hold in
between: the run owns one :class:`TofBank`, samples it only on the ticks
where its ``due`` time has come, and holds the frame on the others.

A refresh casts the front beam and the beams its bank names; a bank
has no default, and a flight's names those its policy reads on every
step, so a wall tracker's far side waits for a corner.  A beam left
uncast is cast when the frame is first asked for it, from the pose the
frame was sampled at and with the noise draw the refresh made for it,
so every frame reads the same floats whichever beams were cast.

The camera model is a forward cone used to decide which target objects
an inference frame can possibly see; it synthesizes no images.

Both sense from the vehicle's pose, given as the three floats ``x, y,
heading`` (see :mod:`exploresim.vehicle`).
"""

from __future__ import annotations

import functools
import math

from .arena import Arena
from .kinds import FOV, NON_NEGATIVE, POSITIVE, RATE, Model
from .vehicle import normalize_heading

# beam mount angles relative to body heading: front, left, right, back
MOUNT_ANGLES = (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi)
BEAMS = ("front", "left", "right", "back")

_MIN_READING = 0.001
_TIME_EPS = 1e-9
_new = object.__new__


class TofConfig(Model):
    max_range: float = 4.0
    rate_hz: float = 20.0
    noise_sigma: float = 0.0

    KINDS = {"max_range": POSITIVE, "rate_hz": RATE, "noise_sigma": NON_NEGATIVE}


def _reading(source: tuple, i: int) -> float:
    """Beam ``i`` of a refresh from ``source``, ``(arena, x, y, heading,
    max_range, draws)``: cast from the pose and saturated at the range;
    with noise (``draws`` not None) its draw ``draws[i]`` added and the sum
    clamped into [0.001, max_range]."""
    arena, x, y, heading, max_range, draws = source
    # the front beam adds its zero mount, which makes a heading of -0.0 a 0.0
    r = arena.raycast(x, y, heading + MOUNT_ANGLES[i])
    r = r if r <= max_range else max_range
    if draws is not None:
        r += draws[i]
        r = _MIN_READING if r < _MIN_READING else (r if r <= max_range else max_range)
    return r


class TofFrame:
    """One ranging measurement of the four beams, in meters, taken at ``t``.

    It reads by field name only; only :meth:`TofBank.sample` makes one.
    A frame made without casting a beam casts it on its first read, from
    the refresh's pose and draw, and keeps the reading.
    """

    __slots__ = ("front", "left", "right", "back", "t", "_source")


def _deferred(name: str) -> property:
    """Beam ``name`` of a frame, cast from its refresh's ``_source`` on the
    first read if the refresh left it uncast, and kept in its slot."""
    i = BEAMS.index(name)
    slot = TofFrame.__dict__[name]
    get, put = slot.__get__, slot.__set__

    def read(frame):
        try:
            return get(frame)
        except AttributeError:  # the slot is unset: the beam is uncast
            r = _reading(frame._source, i)
            put(frame, r)
            return r
    return property(read)


@functools.cache
def _frame_class(uncast: tuple[str, ...]) -> type:
    """The class of the frames of a refresh that leaves the beams ``uncast``
    uncast: a :class:`TofFrame` whose other fields read as plain slots."""
    return type("TofFrame", (TofFrame,), {"__slots__": (), **{n: _deferred(n) for n in uncast}})


class CameraModel(Model):
    fov: float = 1.1                # horizontal, radians
    max_detect_range: float = 2.0   # meters

    KINDS = {"fov": FOV, "max_detect_range": POSITIVE}


class TofBank:
    """Refreshes the ranging frames of one run's sensors.

    ``due`` is the time from which the next refresh is due; the caller
    holds the last frame until then and calls :meth:`sample` only once
    ``t >= due``, as :func:`~exploresim.harness.fly` does.

    ``beams`` names the beams a refresh casts besides the front one; the
    frame casts any other beam when it is first read.
    """

    def __init__(self, cfg: TofConfig, beams: tuple[str, ...]):
        self.cfg = cfg
        self._period = 1.0 / cfg.rate_hz
        self._cast = tuple((name, BEAMS.index(name)) for name in beams)
        self._frame_class = _frame_class(tuple(n for n in BEAMS[1:] if n not in beams))
        self.due = -math.inf

    def sample(self, arena: Arena, x: float, y: float, heading: float, rng,
               t: float) -> TofFrame:
        """A new frame measured at time t from the pose ``x, y, heading``:
        it casts the front beam and the bank's ``beams``, and leaves the
        others to the frame.

        Every call refreshes, and moves ``due`` to the first sensor period
        boundary after t, so the first frame of a run is measured at t=0
        and the next on the first call at or after each period.  With
        ``noise_sigma`` zero the rng is never touched; else a refresh
        draws one Gaussian per beam in the order front, left, right,
        back, cast or not.  ``(x, y)`` must be in free space, as every
        pose a flight senses from is.
        """
        cfg = self.cfg
        sigma = cfg.noise_sigma
        if sigma > 0.0:
            gauss = rng.gauss
            draws = (gauss(0.0, sigma), gauss(0.0, sigma), gauss(0.0, sigma),
                     gauss(0.0, sigma))
        else:
            draws = None
        max_range = cfg.max_range
        frame = _new(self._frame_class)
        frame._source = source = (arena, x, y, heading, max_range, draws)
        # _reading(source, 0), inline: the one beam that every refresh casts
        r = arena.raycast(x, y, heading + 0.0)
        r = r if r <= max_range else max_range
        if draws is not None:
            r += draws[0]
            r = _MIN_READING if r < _MIN_READING else (r if r <= max_range else max_range)
        frame.front = r
        for name, i in self._cast:
            setattr(frame, name, _reading(source, i))
        frame.t = t
        period = self._period
        self.due = (int(t / period + _TIME_EPS) + 1) * period - _TIME_EPS
        return frame


def objects_in_fov(arena: Arena, x: float, y: float, heading: float,
                   cam: CameraModel) -> list[int]:
    """Ids of target objects inside the camera cone, from the pose
    ``x, y, heading``, with clear line of sight.

    An object counts as visible when its center is within range, its
    bearing within half the field of view of the heading (the camera
    faces forward), and the ray toward it reaches past the object's near
    edge unobstructed.
    """
    out = []
    half_fov = cam.fov / 2.0
    for obj in arena.objects:
        dx = obj.pos.x - x
        dy = obj.pos.y - y
        dist = math.hypot(dx, dy)
        if dist > cam.max_detect_range:
            continue
        if dist <= obj.radius:
            out.append(obj.id)
            continue
        bearing = math.atan2(dy, dx)
        if abs(normalize_heading(bearing - heading)) > half_fov:
            continue
        if arena.raycast(x, y, bearing) > dist - obj.radius:
            out.append(obj.id)
    return out
