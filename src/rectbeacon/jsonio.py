"""JSON wire formats.  Rationals travel as strings so nothing is ever rounded."""

from __future__ import annotations

import json
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .attraction import AttractionPath
from .errors import GeometryError
from .geometry import _MAX_DIGITS, Point, format_scalar, from_ratio, ratio
from .kernel import KernelRegion
from .polygon import RectPolygon, validate


def point_to_json(p: Point) -> List[str]:
    return [format_scalar(p.x), format_scalar(p.y)]


# The least int with more than _MAX_DIGITS digits.
_TOO_LONG = 10 ** _MAX_DIGITS


def _coordinate(value) -> Tuple[int, int]:
    """(p, q), in lowest terms, of a JSON coordinate: a number string that
    ratio() reads, or a JSON integer.  A JSON float is rejected, not rounded,
    and so is a bool.  An integer longer than _MAX_DIGITS digits is refused
    as a string that long is."""
    if isinstance(value, str):
        return ratio(value)
    if type(value) is int:
        if abs(value) >= _TOO_LONG:
            raise GeometryError(f"number with more than {_MAX_DIGITS} digits: a JSON integer")
        return value, 1
    raise GeometryError(f"a coordinate must be a string or an integer, not {value!r}")


def _pair(item) -> list:
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise GeometryError(f"expected [x, y], got {item!r}")
    return item


def point_from_json(item) -> Point:
    x, y = _pair(item)
    return Point(from_ratio(*_coordinate(x)), from_ratio(*_coordinate(y)))


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
    """The validated polygon of data['vertices'].  On a rectilinear ring
    every coordinate string appears at least twice, and each distinct one is
    parsed once.  validate() gets the coordinates as parsed, times their
    common denominator, as ints."""
    memo: dict = {}
    coords = []  # (scalar, p, q) per coordinate, x and y alternating
    for item in _list_field(data, "vertices"):
        for value in _pair(item):
            c = memo.get(value) if isinstance(value, str) else None
            if c is None:
                p, q = _coordinate(value)
                c = (from_ratio(p, q), p, q)
                if isinstance(value, str):
                    memo[value] = c
            coords.append(c)
    d = lcm(*{q for _, _, q in coords})
    pts = [Point(coords[k][0], coords[k + 1][0]) for k in range(0, len(coords), 2)]
    xs = [p * (d // q) for _, p, q in coords[0::2]]
    ys = [p * (d // q) for _, p, q in coords[1::2]]
    return validate(pts, merge_collinear=merge_collinear, _ints=(d, xs, ys))


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
