"""Static world model: room, obstacles, target objects, ray casting.

The room is an axis-aligned rectangle with its origin at the south-west
corner, x east, y north, headings counter-clockwise from +x.  Obstacles
are axis-aligned boxes; walls are the room boundary itself.  Target
objects are small discs that range sensing ignores and the camera model
looks for.  :class:`Arena` and :class:`TargetObject` are config models
(:class:`~exploresim.kinds.Model`): checked when made, holding what their
kinds return, frozen after, so safe to share across concurrent runs.

The geometric primitives of every control tick are methods of
:class:`Arena`: ray casting (slab method), disc collision and the
clearance that bounds how far a disc may travel before it needs the
collision test again; the point-in-free-space test checks positions
where they enter.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .errors import ValidationError
from .kinds import (BOX, INTEGER, LIST, POINT, POSITIVE, ROOM_SIDE, Kind, Model,
                    choice, instance_of, list_of)

OBJECT_CLASSES = ("bottle", "tin_can")
DEFAULT_OBJECT_RADIUS = 0.05
_INF = math.inf

# Default mission room: 6.5 x 5.5 m, empty, six objects (three bottles,
# three tin cans); one of each class near the center, four near the
# corners.  The exact coordinates are a convention of this simulator.
DEFAULT_ARENA_DOC = {
    "width": 6.5,
    "height": 5.5,
    "obstacles": [],
    "objects": [
        {"id": 1, "class": "bottle", "pos": [2.9, 2.75], "radius": 0.05},
        {"id": 2, "class": "tin_can", "pos": [3.6, 2.75], "radius": 0.05},
        {"id": 3, "class": "bottle", "pos": [0.8, 0.8], "radius": 0.05},
        {"id": 4, "class": "tin_can", "pos": [5.7, 0.8], "radius": 0.05},
        {"id": 5, "class": "bottle", "pos": [0.8, 4.7], "radius": 0.05},
        {"id": 6, "class": "tin_can", "pos": [5.7, 4.7], "radius": 0.05},
    ],
}


Vec2 = namedtuple("Vec2", "x y")
Vec2.__doc__ = """Planar position in meters; the ``POSITION`` kind makes one from ``[x, y]``."""


POSITION = Kind(POINT.text, lambda v: Vec2._make(POINT.convert(v)), POINT.test)


class TargetObject(Model):
    """A detectable object on the floor, modeled as a disc."""

    id: int
    cls: str
    pos: Vec2
    radius: float = DEFAULT_OBJECT_RADIUS

    KINDS = {"id": INTEGER, "cls": choice(OBJECT_CLASSES), "pos": POSITION, "radius": POSITIVE}


class Arena(Model):
    """A checked, immutable room with obstacle boxes and target objects."""

    width: float
    height: float
    obstacles: tuple[tuple[float, float, float, float], ...] = ()  # (x0, y0, x1, y1)
    objects: tuple[TargetObject, ...] = ()

    KINDS = {"width": ROOM_SIDE, "height": ROOM_SIDE, "obstacles": list_of(BOX, nonempty=False),
             "objects": list_of(instance_of(TargetObject), nonempty=False)}

    def __post_init__(self):
        for i, (x0, y0, x1, y1) in enumerate(self.obstacles):
            if not (x0 < x1 and y0 < y1):
                raise ValidationError(f"obstacles[{i}]", "min corner must be < max corner per axis")
            if x0 < 0.0 or y0 < 0.0 or x1 > self.width or y1 > self.height:
                raise ValidationError(f"obstacles[{i}]", "must lie within the room")
        seen_ids = set()
        for i, obj in enumerate(self.objects):
            if obj.id in seen_ids:
                raise ValidationError(f"objects[{i}].id", f"duplicate id {obj.id}")
            seen_ids.add(obj.id)
            if not self.in_free_space(obj.pos.x, obj.pos.y):
                raise ValidationError(f"objects[{i}].pos", "must lie in free space")

    def raycast(self, ox: float, oy: float, heading: float) -> float:
        """Exact distance to the first obstacle face or room wall.

        The origin must be in free space (:meth:`in_free_space`), which is
        not checked here; walls then enclose it, so the result is finite.
        """
        dx = math.cos(heading)
        dy = math.sin(heading)
        if dx > 0.0:
            t = (self.width - ox) / dx
        elif dx < 0.0:
            t = -ox / dx
        else:
            t = _INF
        if dy > 0.0:
            ty = (self.height - oy) / dy
        elif dy < 0.0:
            ty = -oy / dy
        else:
            ty = _INF
        if ty < t:
            t = ty
        if not self.obstacles:
            return t
        # slab test; the inverse direction is taken once per ray, not per
        # box (Williams et al., JGT 2005), and is read only where nonzero
        inv_x = 1.0 / dx if dx != 0.0 else 0.0
        inv_y = 1.0 / dy if dy != 0.0 else 0.0
        for x0, y0, x1, y1 in self.obstacles:
            if dx != 0.0:
                ta = (x0 - ox) * inv_x
                tb = (x1 - ox) * inv_x
                if ta > tb:
                    ta, tb = tb, ta
                tmin = ta
                tmax = tb
            else:
                # parallel to the slab: closed bounds, as the faces are solid
                # (in_free_space), so a beam along a face stops at the box
                if ox < x0 or ox > x1:
                    continue
                tmin = -_INF
                tmax = _INF
            if dy != 0.0:
                ta = (y0 - oy) * inv_y
                tb = (y1 - oy) * inv_y
                if ta > tb:
                    ta, tb = tb, ta
                if ta > tmin:
                    tmin = ta
                if tb < tmax:
                    tmax = tb
            else:
                if oy < y0 or oy > y1:
                    continue
            if tmin <= tmax and tmin > 0.0 and tmin < t:
                t = tmin
        return t

    def in_free_space(self, x: float, y: float) -> bool:
        """True iff strictly inside the room and outside every obstacle."""
        if x <= 0.0 or x >= self.width or y <= 0.0 or y >= self.height:
            return False
        for x0, y0, x1, y1 in self.obstacles:
            if x0 <= x <= x1 and y0 <= y <= y1:
                return False
        return True

    def disc_blocked(self, x: float, y: float, radius: float) -> bool:
        """True iff a disc at (x, y) strictly penetrates a wall or obstacle.

        Contact at exactly ``radius`` is free.
        """
        if (x - radius < 0.0 or x + radius > self.width
                or y - radius < 0.0 or y + radius > self.height):
            return True
        if not self.obstacles:
            return False
        rr = radius * radius
        for x0, y0, x1, y1 in self.obstacles:
            cx = x0 if x < x0 else (x1 if x > x1 else x)
            cy = y0 if y < y0 else (y1 if y > y1 else y)
            ddx = x - cx
            ddy = y - cy
            if ddx * ddx + ddy * ddy < rr:
                return True
        return False

    def clearance(self, x: float, y: float) -> float:
        """Distance from (x, y) to the nearest wall or obstacle, 0 on or
        inside a box, save rounding: under two ulps of the room's larger
        side, or of 1 m if that is larger (see :func:`harness.fly`)."""
        d = min(x, self.width - x, y, self.height - y)
        for x0, y0, x1, y1 in self.obstacles:
            cx = x0 if x < x0 else (x1 if x > x1 else x)
            cy = y0 if y < y0 else (y1 if y > y1 else y)
            d = min(d, math.hypot(x - cx, y - cy))
        return d

    @property
    def center(self) -> Vec2:
        return Vec2(self.width / 2.0, self.height / 2.0)


def _entry(doc, path: str, required, optional=()) -> dict:
    """``doc`` if it is an object with every ``required`` key and no key
    outside ``required`` and ``optional``; errors name ``path`` or the key
    under it."""
    if not isinstance(doc, dict):
        raise ValidationError(path or "<document>", "must be an object")
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in doc:
            raise ValidationError(f"{prefix}{key}", "missing required field")
    for key in doc:
        if key not in required and key not in optional:
            raise ValidationError(f"{prefix}{key}", "unknown key")
    return doc


# document key -> TargetObject field
_OBJECT_FIELDS = {"id": "id", "class": "cls", "pos": "pos", "radius": "radius"}


def load_arena(document) -> Arena:
    """Build an Arena from a document (dict, or JSON text).

    Schema: ``{width, height, obstacles: [{min: [x,y], max: [x,y]}],
    objects: [{id, class, pos: [x,y], radius}]}``, lengths in meters;
    ``obstacles``, ``objects`` and ``radius`` are optional, other keys are
    rejected.  A :class:`ValidationError` names the offending document key.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError("<document>", f"not valid JSON: {exc}") from None
    doc = _entry(document, "", ("width", "height"), ("obstacles", "objects"))
    obstacles = []
    for i, entry in enumerate(LIST(doc.get("obstacles", []), "obstacles")):
        path = f"obstacles[{i}]"
        box = _entry(entry, path, ("min", "max"))
        obstacles.append(POINT(box["min"], f"{path}.min") + POINT(box["max"], f"{path}.max"))
    objects = []
    for i, entry in enumerate(LIST(doc.get("objects", []), "objects")):
        path = f"objects[{i}]"
        _entry(entry, path, ("id", "class", "pos"), ("radius",))
        values = {field: TargetObject.KINDS[field](entry[key], f"{path}.{key}")
                  for key, field in _OBJECT_FIELDS.items() if key in entry}
        objects.append(TargetObject(**values))
    return Arena(doc["width"], doc["height"], obstacles, objects)


def load_arena_file(path) -> Arena:
    """Load an arena document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_arena(fh.read())


def default_arena() -> Arena:
    """The default mission room (see :data:`DEFAULT_ARENA_DOC`)."""
    return load_arena(DEFAULT_ARENA_DOC)
