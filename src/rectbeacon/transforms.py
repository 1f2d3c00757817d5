"""The eight axis-preserving symmetries of the plane (dihedral group of the square).

Placement case analyses are written for one orientation; inputs are mapped
through a transform realizing that orientation and results mapped back.
"""

from __future__ import annotations

from typing import Callable, List

from .geometry import Point
from .polygon import RectPolygon


class Transform:
    __slots__ = ("name", "fn", "inv_name")

    def __init__(self, name: str, fn: Callable[[Point], Point], inv_name: str):
        self.name = name
        self.fn = fn
        self.inv_name = inv_name

    def point(self, p: Point) -> Point:
        return self.fn(p)

    def polygon(self, poly: RectPolygon) -> RectPolygon:
        pts = [self.fn(p) for p in poly.vertices]
        if self.fn(Point(1, 0)).cross(self.fn(Point(0, 1))) < 0:  # a mirror reverses the walk
            pts.reverse()
        return RectPolygon(pts, _trusted=True)

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


def all_transforms() -> List[Transform]:
    return list(TRANSFORMS.values())
