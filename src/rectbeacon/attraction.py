"""Exact simulation of beacon attraction in a simple rectilinear polygon.

A pulled point moves straight at the beacon until it reaches it or hits the
boundary; on an edge it slides in the direction that shrinks the Euclidean
distance; at an edge endpoint it resumes straight motion if the local
interior allows it, otherwise it slides on the other incident edge if that
helps.  It stops at a dead point when no feasible direction decreases the
distance.

Conventions pinned here (the model is otherwise ambiguous at measure-zero
configurations):

* the movement domain is the closed polygon, so travelling along an edge in
  a straight "free" segment is legal;
* a free segment whose first boundary contact is exactly a vertex arrives at
  that vertex and continues by the vertex rules;
* at a reflex vertex where straight motion is blocked, both incident edges
  strictly decrease the distance; such a tie is declared a dead point
  (AmbiguousVertex) rather than picking a side.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import InternalCaseError, PointOutsidePolygon
from .geometry import Point
from .polygon import CONVEX, REFLEX, RectPolygon, _BACK, _INWARD, _UNIT, boundary_hits

FREE = "free"
SLIDE = "slide"

REACHED = "reached"
DEAD_FOOT = "perpendicular_foot"
DEAD_STUCK = "stuck_vertex"
DEAD_AMBIGUOUS = "ambiguous_vertex"


class Segment:
    __slots__ = ("a", "b", "mode", "edge")

    def __init__(self, a: Point, b: Point, mode: str, edge: Optional[int] = None):
        self.a = a
        self.b = b
        self.mode = mode
        self.edge = edge

    def __repr__(self):
        extra = f" e{self.edge}" if self.edge is not None else ""
        return f"Segment({self.a}->{self.b} {self.mode}{extra})"


class AttractionPath:
    __slots__ = ("start", "beacon", "segments", "reached", "dead_reason", "terminal")

    def __init__(self, start: Point, beacon: Point, segments: List[Segment],
                 reached: bool, dead_reason: Optional[str]):
        self.start = start
        self.beacon = beacon
        self.segments = segments
        self.reached = reached
        self.dead_reason = dead_reason
        self.terminal = segments[-1].b if segments else start

    @property
    def outcome(self) -> str:
        return REACHED if self.reached else "dead"

    def points(self) -> List[Point]:
        if not self.segments:
            return [self.start]
        return [self.segments[0].a] + [s.b for s in self.segments]

    def __repr__(self):
        tail = REACHED if self.reached else f"dead:{self.dead_reason}@{self.terminal}"
        return f"AttractionPath({self.start}->{self.beacon}, {len(self.segments)} segs, {tail})"


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


def attracts(poly: RectPolygon, b: Point, p: Point) -> bool:
    """True iff the beacon at b pulls p all the way to b."""
    return attraction_path(poly, p, b).reached


def is_dead_point(poly: RectPolygon, q: Point, b: Point) -> bool:
    """True iff q is a local minimum of the distance-to-b field on poly."""
    where = poly.contains(q)
    if where == "out":
        raise PointOutsidePolygon(f"{q} is outside the polygon")
    if poly.contains(b) == "out":
        raise PointOutsidePolygon(f"beacon {b} is outside the polygon")
    return _begin(poly, q, b, where)[0] == "dead"
