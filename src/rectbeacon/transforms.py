"""The eight axis-preserving symmetries of the plane (dihedral group of the square).

The program itself uses none of them: placement runs in its input's frame
and reads orientations as senses.  The tests use them to present one
polygon in all eight ways, and perfbench imports the module to time
Transform.polygon.
"""

from __future__ import annotations

from typing import Callable

from .geometry import Point
from .polygon import RectPolygon


class Transform:
    __slots__ = ("name", "fn", "mirror", "_axes")

    def __init__(self, name: str, fn: Callable[[Point], Point]):
        self.name = name
        self.fn = fn
        ex, ey = fn(Point(1, 0)), fn(Point(0, 1))
        self.mirror = ex.cross(ey) < 0  # a mirror reverses the walk
        # Each new coordinate is one old coordinate (0: x, 1: y) times a sign.
        self._axes = tuple((0, int(cx)) if cx else (1, int(cy)) for cx, cy in ((ex.x, ey.x), (ex.y, ey.y)))

    def point(self, p: Point) -> Point:
        return self.fn(p)

    def polygon(self, poly: RectPolygon) -> RectPolygon:
        """poly's image, classified on poly's ints mapped the same way."""
        pts = [self.fn(p) for p in poly.vertices]
        d, *old = poly._ints
        xs, ys = ([sign * c for c in old[axis]] for axis, sign in self._axes)
        if self.mirror:
            pts.reverse()
            xs.reverse()
            ys.reverse()
        return RectPolygon(pts, _trusted=True, _ints=(d, xs, ys))

    def __repr__(self):
        return f"Transform({self.name})"


TRANSFORMS = {
    "id": Transform("id", lambda p: p),
    "rot90": Transform("rot90", lambda p: Point(-p.y, p.x)),
    "rot180": Transform("rot180", lambda p: Point(-p.x, -p.y)),
    "rot270": Transform("rot270", lambda p: Point(p.y, -p.x)),
    "mirror_x": Transform("mirror_x", lambda p: Point(-p.x, p.y)),
    "mirror_y": Transform("mirror_y", lambda p: Point(p.x, -p.y)),
    "mirror_diag": Transform("mirror_diag", lambda p: Point(p.y, p.x)),
    "mirror_anti": Transform("mirror_anti", lambda p: Point(-p.y, -p.x)),
}
