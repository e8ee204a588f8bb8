"""Static world model: room, obstacles, target objects, ray casting.

The room is an axis-aligned rectangle with its origin at the south-west
corner, x east, y north, headings counter-clockwise from +x.  Obstacles
are axis-aligned boxes; walls are the room boundary itself.  Target
objects are small discs that range sensing ignores and the camera model
looks for.  An :class:`Arena` is immutable after construction and safe
to share across concurrently executing runs.

The geometric primitives of every control tick are methods of
:class:`Arena`: ray casting (slab method), point-in-free-space and disc
collision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvalidOriginError, ValidationError

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


@dataclass(frozen=True)
class Vec2:
    """Planar position in meters."""

    x: float
    y: float


@dataclass(frozen=True)
class TargetObject:
    """A detectable object on the floor, modeled as a disc."""

    id: int
    cls: str
    pos: Vec2
    radius: float = DEFAULT_OBJECT_RADIUS


class Arena:
    """Validated, immutable room with obstacles and target objects."""

    def __init__(self, width, height, obstacles=(), objects=()):
        width = float(width)
        height = float(height)
        if not (width > 0.0 and math.isfinite(width)):
            raise ValidationError("width", "must be a positive finite number")
        if not (height > 0.0 and math.isfinite(height)):
            raise ValidationError("height", "must be a positive finite number")
        self.width = width
        self.height = height
        boxes = []
        for i, box in enumerate(obstacles):
            x0, y0, x1, y1 = (float(v) for v in box)
            if not (x0 < x1 and y0 < y1):
                raise ValidationError(f"obstacles[{i}]", "min corner must be < max corner per axis")
            if x0 < 0.0 or y0 < 0.0 or x1 > width or y1 > height:
                raise ValidationError(f"obstacles[{i}]", "must lie within the room")
            boxes.append((x0, y0, x1, y1))
        self.obstacles = tuple(boxes)
        objs = tuple(objects)
        seen_ids = set()
        for i, obj in enumerate(objs):
            if obj.radius <= 0.0:
                raise ValidationError(f"objects[{i}].radius", "must be > 0")
            if obj.cls not in OBJECT_CLASSES:
                raise ValidationError(
                    f"objects[{i}].class", f"must be one of {', '.join(OBJECT_CLASSES)}"
                )
            if obj.id in seen_ids:
                raise ValidationError(f"objects[{i}].id", f"duplicate id {obj.id}")
            seen_ids.add(obj.id)
            if not self.in_free_space(obj.pos.x, obj.pos.y):
                raise ValidationError(f"objects[{i}].pos", "must lie in free space")
        self.objects = objs

    def raycast(self, ox: float, oy: float, heading: float) -> float:
        """Exact distance to the first obstacle face or room wall.

        Raises :class:`InvalidOriginError` if the origin is not in free
        space; walls enclose the room, so the result is always finite.
        """
        if not self.in_free_space(ox, oy):
            raise InvalidOriginError(f"ray origin ({ox}, {oy}) is not in free space")
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
        for x0, y0, x1, y1 in self.obstacles:
            if dx != 0.0:
                inv = 1.0 / dx
                ta = (x0 - ox) * inv
                tb = (x1 - ox) * inv
                if ta > tb:
                    ta, tb = tb, ta
                tmin = ta
                tmax = tb
            else:
                if ox <= x0 or ox >= x1:
                    continue
                tmin = -_INF
                tmax = _INF
            if dy != 0.0:
                inv = 1.0 / dy
                ta = (y0 - oy) * inv
                tb = (y1 - oy) * inv
                if ta > tb:
                    ta, tb = tb, ta
                if ta > tmin:
                    tmin = ta
                if tb < tmax:
                    tmax = tb
            else:
                if oy <= y0 or oy >= y1:
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
        rr = radius * radius
        for x0, y0, x1, y1 in self.obstacles:
            cx = x0 if x < x0 else (x1 if x > x1 else x)
            cy = y0 if y < y0 else (y1 if y > y1 else y)
            ddx = x - cx
            ddy = y - cy
            if ddx * ddx + ddy * ddy < rr:
                return True
        return False

    @property
    def center(self) -> Vec2:
        return Vec2(self.width / 2.0, self.height / 2.0)


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ValidationError(f"{path}{key}" if path else key, "missing required field")
    return doc[key]


def _as_pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(path, "must be a [x, y] pair")
    try:
        return float(value[0]), float(value[1])
    except (TypeError, ValueError):
        raise ValidationError(path, "coordinates must be numbers") from None


def load_arena(document) -> Arena:
    """Build an Arena from a document (dict, or JSON text).

    Schema: ``{width, height, obstacles: [{min: [x,y], max: [x,y]}],
    objects: [{id, class, pos: [x,y], radius}]}``, lengths in meters.
    Raises :class:`ValidationError` with a field path on any violation.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError("<document>", f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ValidationError("<document>", "top level must be an object")
    width = _require(document, "width", "")
    height = _require(document, "height", "")
    obstacles = []
    for i, entry in enumerate(document.get("obstacles", [])):
        if not isinstance(entry, dict):
            raise ValidationError(f"obstacles[{i}]", "must be an object with min/max")
        lo = _as_pair(_require(entry, "min", f"obstacles[{i}]."), f"obstacles[{i}].min")
        hi = _as_pair(_require(entry, "max", f"obstacles[{i}]."), f"obstacles[{i}].max")
        obstacles.append((lo[0], lo[1], hi[0], hi[1]))
    objects = []
    for i, entry in enumerate(document.get("objects", [])):
        if not isinstance(entry, dict):
            raise ValidationError(f"objects[{i}]", "must be an object")
        oid = _require(entry, "id", f"objects[{i}].")
        if not isinstance(oid, int):
            raise ValidationError(f"objects[{i}].id", "must be an integer")
        cls = _require(entry, "class", f"objects[{i}].")
        pos = _as_pair(_require(entry, "pos", f"objects[{i}]."), f"objects[{i}].pos")
        radius = float(entry.get("radius", DEFAULT_OBJECT_RADIUS))
        objects.append(TargetObject(oid, cls, Vec2(*pos), radius))
    try:
        return Arena(width, height, obstacles, objects)
    except (TypeError, ValueError) as exc:
        raise ValidationError("<document>", str(exc)) from None


def load_arena_file(path) -> Arena:
    """Load an arena document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_arena(fh.read())


def default_arena() -> Arena:
    """The default mission room (see :data:`DEFAULT_ARENA_DOC`)."""
    return load_arena(DEFAULT_ARENA_DOC)
