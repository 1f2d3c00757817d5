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

Every path runs on ints, in one integer frame: the start p and the beacon b
are scaled by S = D*q, D the scale of the polygon's edge index and q the
common denominator of p and b.  The vertices are then the polygon's scaled
ints times q, and so are the levels and spans of the index rows.  The first
contact of a free segment is the least t over the index rows across it,
found by walking them outward from its start; slides and the vertex rules
compare ints.

The one point off the frame is a free segment's contact with the interior
of an edge: it divides by the segment's extent |dl| across that edge, so it
is kept homogeneous, as (X, Y, W) with W = |dl|.  From there the path can
only slide along the edge or die at the foot of b on it, and both end on
frame points (a vertex, or b's coordinate along the edge at the edge's
level), so every free segment starts at an integral point.

_finish checks, for every path, that each segment strictly shrinks the
squared distance to b, on the homogeneous ints cross-multiplied by the
squared weights.  Only attraction_path turns the points into Fractions,
once, at the end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import List, Optional, Tuple

from .errors import InternalCaseError, PointOutsidePolygon
from .geometry import Point
from .polygon import CONVEX, RectPolygon

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


class _Pull:
    """The integer frame of one path from p towards b (see the module
    docstring): p and b scaled by S = D*q, and the rules on it.  A point is
    (X, Y, W), the coordinates times S*W."""

    __slots__ = ("poly", "q", "s", "xs", "ys", "index", "bx", "by", "start", "where")

    def __init__(self, poly: RectPolygon, p: Point, b: Point):
        d, self.index = poly.edge_index()
        _, self.xs, self.ys = poly._ints
        self.poly = poly
        self.q = q = lcm(p.x.denominator, p.y.denominator, b.x.denominator, b.y.denominator)
        self.s = s = d * q
        px, py, self.bx, self.by = (c.numerator * (s // c.denominator) for c in (p.x, p.y, b.x, b.y))
        self.start, self.where = (px, py, 1), poly.locate_scaled(px, py, q)
        if self.where == "out":
            raise PointOutsidePolygon(f"start {p} is outside the polygon")
        if poly.locate_scaled(self.bx, self.by, q) == "out":
            raise PointOutsidePolygon(f"beacon {b} is outside the polygon")

    def begin(self) -> Tuple:
        """First action from the start."""
        if self.where == "in":
            return ("free",)
        i, at_vertex = self.where
        if at_vertex:
            return self.vertex(i, None)
        # Inside edge i: free unless b lies strictly outside its line.
        (x, y, _), xs, ys, j = self.start, self.xs, self.ys, (i + 1) % self.poly.n
        if (self.by - y) * (xs[j] - xs[i]) - (self.bx - x) * (ys[j] - ys[i]) >= 0:
            return ("free",)
        return self.hit_edge(i, self.start)

    def hit_edge(self, i: int, point: Tuple[int, int, int]) -> Tuple:
        """Straight motion blocked at point inside edge i: dead when it is
        the foot of b on the edge, else a slide."""
        x, y, w = point
        foot, cur = (self.bx, x) if self.ys[i] == self.ys[(i + 1) % self.poly.n] else (self.by, y)
        return ("dead", DEAD_FOOT) if foot * w == cur else ("slide", i)

    def free(self, x: int, y: int) -> Optional[Tuple[Tuple[int, int, int], Tuple]]:
        """The first boundary contact of the segment from the frame point
        (x, y) to b before b, with the action there, or None when there is
        none: the least t over both orientations of index rows, each walked
        outward from (x, y) up to the row before b's level, where the first
        row whose span holds the contact is the nearest.  At equal t the
        contacts are one vertex."""
        q, bx, by = self.q, self.bx, self.by
        best = None  # (|num|, w, orientation, row, u): the contact at t = |num| / w
        for o, zl, dl, zu, du in (("V", x, bx - x, y, by - y), ("H", y, by - y, x, bx - x)):
            if dl == 0:
                continue
            levels, rows = self.index[o]
            if dl > 0:
                walk = range(bisect_right(levels, zl // q), bisect_left(levels, -(-(zl + dl) // q)))
                w = dl
            else:
                walk = range(bisect_left(levels, -(-zl // q)) - 1, bisect_right(levels, (zl + dl) // q) - 1, -1)
                w = -dl
            for k in walk:
                row = rows[k]
                num = row[0] * q - zl
                if best is not None and abs(num) * best[1] >= best[0] * w:
                    break
                # The contact's coordinate along the edge, times S*w.
                u = zu * w + (num * du if dl > 0 else -num * du)
                if row[1] * q * w <= u <= row[2] * q * w:
                    best = (abs(num), w, o, row, u)
                    break
        if best is None:
            return None
        _, w, o, (level, lo, hi, vlo, vhi, i), u = best
        if u == lo * q * w or u == hi * q * w:
            v = vlo if u == lo * q * w else vhi
            return (self.xs[v] * q, self.ys[v] * q, 1), self.vertex(v, None)
        across = level * q * w
        point = (across, u, w) if o == "V" else (u, across, w)
        return point, self.hit_edge(i, point)

    def slide(self, i: int, point: Tuple[int, int, int]) -> Tuple[Tuple[int, int, int], Tuple]:
        """Slide along edge i from point towards the foot of b on it: the
        stop, at the foot or at an end of the edge, with the action there."""
        xs, ys, q, j = self.xs, self.ys, self.q, (i + 1) % self.poly.n
        x, y, w = point
        horizontal = ys[i] == ys[j]
        coords, foot, cur = (xs, self.bx, x) if horizontal else (ys, self.by, y)
        # The end towards the foot, and whether the foot comes first.
        lo, hi = (i, j) if coords[i] < coords[j] else (j, i)
        end = hi if foot * w > cur else lo
        if (foot < coords[end] * q) if end == hi else (foot > coords[end] * q):
            stop = (foot, ys[i] * q, 1) if horizontal else (xs[i] * q, foot, 1)
            return stop, ("dead", DEAD_FOOT)
        return (xs[end] * q, ys[end] * q, 1), self.vertex(end, i)

    def vertex(self, i: int, arrived_slide_on: Optional[int]) -> Tuple:
        """The action at vertex i, reached by a slide along an edge or else
        by free motion (or as the start)."""
        xs, ys, q, n = self.xs, self.ys, self.q, self.poly.n
        dx, dy = self.bx - xs[i] * q, self.by - ys[i] * q
        if dx == 0 and dy == 0:
            return ("reached",)
        h, j = (i - 1) % n, (i + 1) % n
        # Signs of b - v along the two incident edges, towards their far ends.
        back = dx * (xs[h] - xs[i]) + dy * (ys[h] - ys[i])
        ahead = dx * (xs[j] - xs[i]) + dy * (ys[j] - ys[i])
        convex = self.poly.classes[i] == CONVEX
        if (back >= 0 and ahead >= 0) if convex else not (back > 0 and ahead > 0):
            return ("free",)
        if arrived_slide_on is not None:
            other, towards = (h, back) if arrived_slide_on == i else (i, ahead)
            return ("slide", other) if towards > 0 else ("dead", DEAD_STUCK)
        if not convex:
            # Blocked at a reflex vertex means both incident edges strictly
            # decrease the distance: two valid continuations, declared dead.
            return ("dead", DEAD_AMBIGUOUS)
        if back > 0 and ahead > 0:
            raise InternalCaseError("blocked convex vertex with two decreasing edges")
        return ("slide", h) if back > 0 else ("slide", i) if ahead > 0 else ("dead", DEAD_STUCK)

    def as_point(self, point: Tuple[int, int, int]) -> Point:
        x, y, w = point
        return Point(Fraction(x, w * self.s), Fraction(y, w * self.s))


def _simulate(pull: _Pull) -> Tuple[List[Tuple[int, int, int]], List[Optional[int]], bool, Optional[str]]:
    """Run the path on its frame: (its points, the slide edge of each segment
    between them or None for a free one, reached, dead reason)."""
    point = pull.start
    points, edges = [point], []
    if point[0] == pull.bx and point[1] == pull.by:
        return points, edges, True, None
    # pending action: ("free",) | ("slide", edge_index) | terminal tuples
    action: Tuple = pull.begin()
    limit = 8 * pull.poly.n + 64
    for _ in range(limit - 1):  # begin took the first of the limit steps
        if action[0] == "free":
            hit = pull.free(point[0], point[1])
            edges.append(None)
            if hit is None:
                points.append((pull.bx, pull.by, 1))
                return _finish(pull, points, edges, True, None)
            point, action = hit
            points.append(point)
        elif action[0] == "slide":
            edges.append(action[1])
            point, action = pull.slide(action[1], point)
            points.append(point)
        elif action[0] == "dead":
            return _finish(pull, points, edges, False, action[1])
        elif action[0] == "reached":
            return _finish(pull, points, edges, True, None)
        else:
            raise InternalCaseError(f"unknown action {action}")  # pragma: no cover
    raise InternalCaseError("attraction path exceeded its event budget")


def _finish(pull: _Pull, points: List[Tuple[int, int, int]], edges: List[Optional[int]],
            reached: bool, reason: Optional[str]):
    """The path, once every segment is checked to shrink the squared
    distance to b strictly: (X - bx*W)^2 + (Y - by*W)^2 over W^2, compared
    cross-multiplied."""
    bx, by = pull.bx, pull.by
    before = None
    for k, (x, y, w) in enumerate(points):
        dx, dy = x - bx * w, y - by * w
        now = (dx * dx + dy * dy, w * w)
        if before is not None and before[0] * now[1] <= now[0] * before[1]:
            e = edges[k - 1]
            seg = Segment(pull.as_point(points[k - 1]), pull.as_point(points[k]), FREE if e is None else SLIDE, e)
            raise InternalCaseError(f"distance to beacon failed to decrease on {seg}")
        before = now
    return points, edges, reached, reason


def attraction_path(poly: RectPolygon, p: Point, b: Point) -> AttractionPath:
    """Simulate the pull of beacon b on a point starting at p, exactly."""
    pull = _Pull(poly, p, b)
    points, edges, reached, reason = _simulate(pull)
    at = [p] + [pull.as_point(point) for point in points[1:]]
    segments = [Segment(u, v, FREE if e is None else SLIDE, e) for u, v, e in zip(at, at[1:], edges)]
    return AttractionPath(p, b, segments, reached, reason)


def attracts(poly: RectPolygon, b: Point, p: Point) -> bool:
    """True iff the beacon at b pulls p all the way to b."""
    return _simulate(_Pull(poly, p, b))[2]


def is_dead_point(poly: RectPolygon, q: Point, b: Point) -> bool:
    """True iff q is a local minimum of the distance-to-b field on poly."""
    return _Pull(poly, q, b).begin()[0] == "dead"
