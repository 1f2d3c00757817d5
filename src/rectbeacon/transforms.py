"""The eight axis-preserving symmetries of the plane (dihedral group of the square).

Two placement case analyses are written for one orientation: cover's
no-safe-cut cases and cover_monotone's sweep.  Their input is mapped
through a transform realizing that orientation, and the beacons and trace
mapped back.  Routing runs in its input's frame and uses none of them.
"""

from __future__ import annotations

from typing import Callable

from .geometry import Point
from .polygon import RectPolygon


class Transform:
    __slots__ = ("name", "fn", "inv_name", "mirror", "_axes")

    def __init__(self, name: str, fn: Callable[[Point], Point], inv_name: str):
        self.name = name
        self.fn = fn
        self.inv_name = inv_name
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

    @property
    def inverse(self) -> "Transform":
        return TRANSFORMS[self.inv_name]

    def __repr__(self):
        return f"Transform({self.name})"


TRANSFORMS = {
    "id": Transform("id", lambda p: p, "id"),
    "rot90": Transform("rot90", lambda p: Point(-p.y, p.x), "rot270"),
    "rot180": Transform("rot180", lambda p: Point(-p.x, -p.y), "rot180"),
    "rot270": Transform("rot270", lambda p: Point(p.y, -p.x), "rot90"),
    "mirror_x": Transform("mirror_x", lambda p: Point(-p.x, p.y), "mirror_x"),
    "mirror_y": Transform("mirror_y", lambda p: Point(p.x, -p.y), "mirror_y"),
    "mirror_diag": Transform("mirror_diag", lambda p: Point(p.y, p.x), "mirror_diag"),
    "mirror_anti": Transform("mirror_anti", lambda p: Point(-p.y, -p.x), "mirror_anti"),
}
