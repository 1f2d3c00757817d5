"""Independent oracle for attraction paths: the event simulator in Fractions.

Every event runs on exact rational Points: the first boundary contact of a
free segment is the first of boundary_hits' sorted contacts, slides and
vertex rules compare Fraction dot products with the unit directions of the
edges, and _finish checks with Point.dist2 that every segment brings the
point closer to the beacon.  rectbeacon.attraction, which runs the same
model on the coordinates scaled to integers, is checked against it.
"""

from typing import List, Optional, Tuple

from rectbeacon.attraction import (
    DEAD_AMBIGUOUS,
    DEAD_FOOT,
    DEAD_STUCK,
    FREE,
    SLIDE,
    AttractionPath,
    Segment,
)
from rectbeacon.errors import InternalCaseError, PointOutsidePolygon
from rectbeacon.geometry import Point
from rectbeacon.polygon import CONVEX, REFLEX, RectPolygon, _INWARD, boundary_hits

_UNIT = {"E": Point(1, 0), "N": Point(0, 1), "W": Point(-1, 0), "S": Point(0, -1)}
_BACK = {"E": "W", "N": "S", "W": "E", "S": "N"}


def _vertex_dirs(poly: RectPolygon, i: int) -> Tuple[Point, Point]:
    """Unit directions from vertex i along its two incident edges."""
    return _UNIT[_BACK[poly.edges[i - 1].direction]], _UNIT[poly.edges[i].direction]


def _free_allowed_at_vertex(poly: RectPolygon, i: int, d: Point) -> bool:
    u1, u2 = _vertex_dirs(poly, i)
    if poly.classes[i] == CONVEX:
        return d.dot(u1) >= 0 and d.dot(u2) >= 0
    return not (d.dot(u1) > 0 and d.dot(u2) > 0)


def attraction_path(poly: RectPolygon, p: Point, b: Point) -> AttractionPath:
    """Simulate the pull of beacon b on a point starting at p, exactly."""
    where = poly.contains(p)
    if where == "out":
        raise PointOutsidePolygon(f"start {p} is outside the polygon")
    if poly.contains(b) == "out":
        raise PointOutsidePolygon(f"beacon {b} is outside the polygon")
    segments: List[Segment] = []
    if p == b:
        return AttractionPath(p, b, segments, True, None)

    z = p
    # pending action: ("free",) | ("slide", edge_index) | terminal tuples
    action: Tuple = _begin(poly, z, b, where)
    limit = 8 * poly.n + 64
    for _ in range(limit - 1):  # _begin took the first of the limit steps
        if action[0] == "free":
            hits = boundary_hits(poly, z, b - z, 1)
            if not hits or hits[0][1] == b:
                segments.append(Segment(z, b, FREE))
                return _finish(poly, p, b, segments, True, None)
            _, pt, kind, payload = hits[0]
            segments.append(Segment(z, pt, FREE))
            z = pt
            if kind == "vertex":
                action = _vertex_continue(poly, payload, b, arrived_slide_on=None)
            else:
                action = _hit_edge(poly, payload, z, b)
            continue
        if action[0] == "slide":
            edge_idx = action[1]
            stop, nxt = _slide(poly, edge_idx, z, b)
            if stop != z:
                segments.append(Segment(z, stop, SLIDE, edge=edge_idx))
            z = stop
            action = nxt
            continue
        if action[0] == "dead":
            return _finish(poly, p, b, segments, False, action[1])
        if action[0] == "reached":
            return _finish(poly, p, b, segments, True, None)
        raise InternalCaseError(f"unknown action {action}")  # pragma: no cover
    raise InternalCaseError("attraction path exceeded its event budget")


def _begin(poly: RectPolygon, z: Point, b: Point, where: str) -> Tuple:
    """First action from the start z, where poly.contains(z) gave `where`."""
    d = b - z
    if where == "in":
        return ("free",)
    idx = poly.vertex_index(z)
    if idx is not None:
        return _vertex_continue(poly, idx, b, arrived_slide_on=None)
    loc = poly.locate_boundary(z)
    e = poly.edges[loc[0]]
    inward = _INWARD[e.direction]
    side = d.dot(inward)
    if side >= 0:
        return ("free",)
    return _hit_edge(poly, e.index, z, b)


def _hit_edge(poly: RectPolygon, edge_idx: int, z: Point, b: Point) -> Tuple:
    """Arrived on the interior of an edge with straight motion blocked."""
    e = poly.edges[edge_idx]
    if e.orientation == "H":
        foot_u, cur_u = b.x, z.x
    else:
        foot_u, cur_u = b.y, z.y
    if foot_u == cur_u:
        return ("dead", DEAD_FOOT)
    return ("slide", edge_idx)


def _slide(poly: RectPolygon, edge_idx: int, z: Point, b: Point):
    """Slide along edge_idx from z toward the foot of b; returns (stop, next)."""
    e = poly.edges[edge_idx]
    if e.orientation == "H":
        foot_u, cur_u = b.x, z.x
        lo, hi = e.span()
        mk = lambda u: Point(u, e.a.y)
    else:
        foot_u, cur_u = b.y, z.y
        lo, hi = e.span()
        mk = lambda u: Point(e.a.x, u)
    if foot_u == cur_u:
        return z, ("dead", DEAD_FOOT)
    if foot_u > cur_u:
        end_u = hi
        reaches_foot = foot_u < end_u
    else:
        end_u = lo
        reaches_foot = foot_u > end_u
    if reaches_foot:
        return mk(foot_u), ("dead", DEAD_FOOT)
    stop = mk(end_u)
    idx = poly.vertex_index(stop)
    assert idx is not None
    return stop, _vertex_continue(poly, idx, b, arrived_slide_on=edge_idx)


def _vertex_continue(poly: RectPolygon, i: int, b: Point, arrived_slide_on: Optional[int]) -> Tuple:
    v = poly.vertices[i]
    if v == b:
        return ("reached",)
    d = b - v
    if _free_allowed_at_vertex(poly, i, d):
        return ("free",)
    prev_edge = (i - 1) % poly.n
    next_edge = i
    u_prev, u_next = _vertex_dirs(poly, i)
    if arrived_slide_on is not None:
        other = prev_edge if arrived_slide_on == next_edge else next_edge
        u_other = u_prev if other == prev_edge else u_next
        if d.dot(u_other) > 0:
            return ("slide", other)
        return ("dead", DEAD_STUCK)
    # Arrived by free motion (or started here) and straight motion is blocked.
    if poly.classes[i] == REFLEX:
        # Blocked at a reflex vertex means both incident edges strictly
        # decrease the distance: two valid continuations, declared dead.
        return ("dead", DEAD_AMBIGUOUS)
    dec = [(prev_edge, u_prev), (next_edge, u_next)]
    dec = [(eidx, u) for eidx, u in dec if d.dot(u) > 0]
    if len(dec) == 1:
        return ("slide", dec[0][0])
    if len(dec) == 0:
        return ("dead", DEAD_STUCK)
    raise InternalCaseError("blocked convex vertex with two decreasing edges")


def _finish(poly: RectPolygon, p: Point, b: Point, segments: List[Segment],
            reached: bool, reason: Optional[str]) -> AttractionPath:
    for seg in segments:
        if seg.a.dist2(b) <= seg.b.dist2(b):
            raise InternalCaseError(
                f"distance to beacon failed to decrease on {seg}"
            )
    return AttractionPath(p, b, segments, reached, reason)
