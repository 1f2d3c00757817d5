"""JSON wire formats.  Rationals travel as strings so nothing is ever rounded."""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple

from .attraction import AttractionPath
from .errors import GeometryError
from .geometry import Point, format_scalar, scalar
from .kernel import KernelRegion
from .polygon import RectPolygon, validate


def point_to_json(p: Point) -> List[str]:
    return [format_scalar(p.x), format_scalar(p.y)]


def point_from_json(item) -> Point:
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise GeometryError(f"expected [x, y], got {item!r}")
    return Point(scalar(str(item[0])), scalar(str(item[1])))


def polygon_to_dict(poly: RectPolygon) -> dict:
    return {"vertices": [point_to_json(v) for v in poly.vertices]}


def _list_field(data, name: str) -> list:
    """data[name] of a JSON object, which must be a list."""
    if not isinstance(data, dict) or name not in data:
        raise GeometryError(f"expected a JSON object with a '{name}' field")
    if not isinstance(data[name], list):
        raise GeometryError(f"'{name}' must be a list, got {type(data[name]).__name__}")
    return data[name]


def polygon_from_dict(data: dict, merge_collinear: bool = False) -> RectPolygon:
    pts = [point_from_json(v) for v in _list_field(data, "vertices")]
    return validate(pts, merge_collinear=merge_collinear)


def beacons_to_dict(beacons: Sequence[Point], mode: str, bound: Optional[int] = None) -> dict:
    out = {"beacons": [point_to_json(b) for b in beacons], "mode": mode}
    if bound is not None:
        out["bound"] = bound
    return out


def beacons_from_dict(data: dict) -> List[Point]:
    return [point_from_json(b) for b in _list_field(data, "beacons")]


def pairs_from_dict(data: dict) -> List[Tuple[Point, Point]]:
    """The point pairs listed under 'pairs', each as [[x, y], [x, y]]."""
    pairs = []
    for item in _list_field(data, "pairs"):
        if not isinstance(item, list) or len(item) != 2:
            raise GeometryError(f"expected [[x, y], [x, y]], got {item!r}")
        pairs.append((point_from_json(item[0]), point_from_json(item[1])))
    return pairs


def path_to_dict(path: AttractionPath) -> dict:
    return {
        "outcome": "reached" if path.reached else "dead",
        "dead_reason": path.dead_reason,
        "points": [point_to_json(p) for p in path.points()],
    }


def path_points_from_dict(data: dict) -> List[Point]:
    """The points of a path as path_to_dict writes it."""
    return [point_from_json(p) for p in _list_field(data, "points")]


def kernel_to_dict(region: KernelRegion) -> dict:
    x_lo, x_hi, y_lo, y_hi = region.bounds
    fmt = lambda v: None if v is None else format_scalar(v)
    out = {
        "bounds": {"x_lo": fmt(x_lo), "x_hi": fmt(x_hi),
                   "y_lo": fmt(y_lo), "y_hi": fmt(y_hi)},
        "degenerate": region.degenerate,
    }
    if region.is_empty:
        out["kernel"] = "empty"
    else:
        out["kernel"] = polygon_to_dict(region.region)["vertices"]
    return out


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
