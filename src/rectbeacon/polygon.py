"""Simple rectilinear polygons: validation, structure queries, cuts and splits.

Everything here is exact: coordinates are rationals and no predicate ever
rounds.  A polygon is stored counterclockwise; the interior always lies to
the left of the direction of travel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from itertools import accumulate
from math import lcm
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import (
    GeneralPositionViolated,
    InternalCaseError,
    NotAChord,
    NotRectilinear,
    NotSimple,
)
from .geometry import Point, scalar

CONVEX = "convex"
REFLEX = "reflex"

# Travel direction of an edge, from the CCW vertex order.
EAST, NORTH, WEST, SOUTH = "E", "N", "W", "S"

# Interior lies to the left of travel: the unit vector towards it, and its
# sense across the edge's line, +1 towards larger coordinates.
_INWARD = {EAST: Point(0, 1), WEST: Point(0, -1), NORTH: Point(-1, 0), SOUTH: Point(1, 0)}
_SENSE = {EAST: 1, WEST: -1, NORTH: -1, SOUTH: 1}


class EdgeRef:
    """One polygon edge with its derived structure: RectPolygon decides its
    direction and kind ('convex', 'reflex' or 'mixed', from the classes of
    its ends) on the integer coordinates."""

    __slots__ = ("index", "a", "b", "direction", "orientation", "kind")

    def __init__(self, index: int, a: Point, b: Point, direction: str, kind: str):
        self.index = index
        self.a = a
        self.b = b
        self.direction = direction
        self.orientation = "H" if direction in (EAST, WEST) else "V"
        self.kind = kind

    @property
    def level(self) -> Fraction:
        return self.a.y if self.orientation == "H" else self.a.x

    @property
    def sense(self) -> int:
        """+1 when the interior lies towards larger coordinates across the
        edge's line, -1 when towards smaller ones."""
        return _SENSE[self.direction]

    def span(self) -> Tuple[Fraction, Fraction]:
        """Closed range of the varying coordinate."""
        lo, hi = (self.a, self.b) if self.direction in (EAST, NORTH) else (self.b, self.a)
        return (lo.x, hi.x) if self.orientation == "H" else (lo.y, hi.y)

    def __repr__(self):
        return f"EdgeRef({self.index}: {self.a}->{self.b} {self.direction} {self.kind})"


class Chord:
    """A located chord: the maximal interior segment on an axis line, the
    one object that split, the reflex counts and chord_sides take.

    ends locates a and b on the boundary, each as (vertex index, True) or
    (index of the edge whose interior holds it, False).
    """

    __slots__ = ("axis", "level", "lo", "hi", "ends")

    def __init__(self, axis: str, level: Fraction, lo: Fraction, hi: Fraction,
                 ends: Tuple[Tuple[int, bool], Tuple[int, bool]]):
        self.axis = axis  # 'H': horizontal line y=level ; 'V': vertical x=level
        self.level = level
        self.lo = lo
        self.hi = hi
        self.ends = ends
        if lo >= hi:
            raise NotAChord(f"degenerate chord on {axis}={level}")

    @property
    def a(self) -> Point:
        """Endpoint with the smaller varying coordinate (west / south)."""
        return Point(self.lo, self.level) if self.axis == "H" else Point(self.level, self.lo)

    @property
    def b(self) -> Point:
        return Point(self.hi, self.level) if self.axis == "H" else Point(self.level, self.hi)

    def __repr__(self):
        return f"Chord({self.axis}={self.level}, [{self.lo},{self.hi}])"


def _scaled(points: Sequence[Point]) -> Tuple[int, List[int], List[int]]:
    """(D, xs, ys): D is the common denominator of the coordinates, and xs
    and ys are the coordinates times D, as ints."""
    d = lcm(*(c.denominator for p in points for c in (p.x, p.y)))
    return (d, [p.x.numerator * (d // p.x.denominator) for p in points],
            [p.y.numerator * (d // p.y.denominator) for p in points])


def _turn(xs: List[int], ys: List[int], a: int, b: int, c: int) -> int:
    """Sign of the turn a -> b -> c through the points (xs[k], ys[k]): 1
    left, -1 right, 0 straight or back."""
    t = (xs[b] - xs[a]) * (ys[c] - ys[b]) - (ys[b] - ys[a]) * (xs[c] - xs[b])
    return (t > 0) - (t < 0)


def _classify(verts: Sequence[Point], xs: List[int], ys: List[int]) -> Tuple[str, ...]:
    """CONVEX or REFLEX for each vertex of a CCW ring, from the turns on the
    ints; NotRectilinear at a straight vertex."""
    n = len(xs)
    classes = []
    for i in range(n):
        turn = _turn(xs, ys, i - 1, i, (i + 1) % n)
        if turn == 0:
            raise NotRectilinear(f"collinear vertex at index {i}: {verts[i]}")
        classes.append(CONVEX if turn > 0 else REFLEX)
    return tuple(classes)


def _merge_ring(points: Sequence[Point], ints: Optional[Tuple[int, List[int], List[int]]] = None
                ) -> Tuple[List[Point], Tuple[int, List[int], List[int]], List[int]]:
    """Drop repeated and 180-degree (collinear) vertices from a closed ring:
    (the points kept, (D, xs, ys) of them, their positions in the ring), D a
    common denominator.  ints is (D, xs, ys) of the points if the caller
    has them."""
    d, xs, ys = _scaled(points) if ints is None else ints
    # A point equal to the one before it repeats the last point kept.
    keep = [k for k in range(len(points)) if k == 0 or xs[k] != xs[k - 1] or ys[k] != ys[k - 1]]
    if len(keep) > 1 and xs[keep[0]] == xs[keep[-1]] and ys[keep[0]] == ys[keep[-1]]:
        keep.pop()
    # Drop the first collinear vertex until none is left.  The vertices before
    # it keep their neighbours, so the scan steps back one place instead of
    # restarting, except after dropping the last vertex, vertex 0's neighbour.
    i, n = 0, len(keep)
    while n >= 3 and i < n:
        if _turn(xs, ys, keep[i - 1], keep[i], keep[(i + 1) % n]) == 0:
            del keep[i]
            n -= 1
            i = 0 if i == n else max(i - 1, 0)
        else:
            i += 1
    return [points[k] for k in keep], (d, [xs[k] for k in keep], [ys[k] for k in keep]), keep


# A ring that chords cut from a polygon, unmerged: its points, (M, xs, ys)
# of them, M a common denominator, and segs, which names what the ring runs
# along from points[m] to points[m + 1]: the polygon's edge segs[m] when
# segs[m] >= 0, else the chord ~segs[m] of the cut.
Ring = namedtuple("Ring", "points ints segs")


def _piece(ring: Ring) -> "RectPolygon":
    """The trusted polygon of a ring cut from a polygon: the ring's ints
    merge it, classify its vertices and edges and later build its index."""
    verts, ints, _ = _merge_ring(ring.points, ring.ints)
    return RectPolygon(verts, _trusted=True, _ints=ints)


def _mapped_piece(ring: Ring):
    """(piece, parent, edge_of): _piece(ring), with parent[j] the segs label
    that piece edge j starts with, which for a vertex strictly inside a
    boundary walk of the ring is its index in the cut polygon, and
    edge_of(label) the piece edge that holds the ring's segment of that
    label, None if the ring has none."""
    verts, ints, keep = _merge_ring(ring.points, ring.ints)
    at = dict(zip(ring.segs, range(len(ring.segs))))

    def edge_of(label: int) -> Optional[int]:
        m = at.get(label)
        # The segments after a dropped vertex continue the edge before it;
        # the ring's first segments, before keep[0], end the last edge.
        return None if m is None else (bisect_right(keep, m) - 1) % len(keep)

    return RectPolygon(verts, _trusted=True, _ints=ints), [ring.segs[m] for m in keep], edge_of


class RectPolygon:
    """Immutable simple rectilinear polygon with cached classifications.

    Build through validate() (full checks) or through internal trusted
    constructors for pieces derived from an already-validated polygon.
    """

    __slots__ = ("vertices", "n", "classes", "r", "reflex_indices", "edges",
                 "was_reversed", "_vertex_pos", "area2", "_prefix", "_ints", "_index", "_shots")

    def __init__(self, vertices: Sequence[Point], was_reversed: bool = False, _trusted: bool = False,
                 _ints: Optional[Tuple[int, List[int], List[int]]] = None,
                 _classes: Optional[Tuple[str, ...]] = None):
        """_ints is (D, xs, ys) of the vertices if the caller has them: the
        coordinates times D, a common denominator, as ints, which every edge
        query reads.  _classes is _classify's result if the caller has it."""
        verts = tuple(vertices)
        if not _trusted:
            raise TypeError("use rectbeacon.polygon.validate() to build a RectPolygon")
        n = len(verts)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "was_reversed", was_reversed)
        d, xs, ys = _ints = _scaled(verts) if _ints is None else _ints
        classes = _classify(verts, xs, ys) if _classes is None else _classes
        object.__setattr__(self, "classes", classes)
        reflex = tuple([i for i, c in enumerate(classes) if c == REFLEX])
        object.__setattr__(self, "reflex_indices", reflex)
        object.__setattr__(self, "r", len(reflex))
        if n != 2 * self.r + 4:
            raise NotRectilinear(f"n = {n} but 2r+4 = {2 * self.r + 4}; polygon is not CCW-simple")
        edges = []
        for i in range(n):
            j = (i + 1) % n
            if ys[i] == ys[j]:
                direction = EAST if xs[i] < xs[j] else WEST
            else:
                direction = NORTH if ys[i] < ys[j] else SOUTH
            edges.append(EdgeRef(i, verts[i], verts[j], direction,
                                 classes[i] if classes[i] == classes[j] else "mixed"))
        object.__setattr__(self, "edges", tuple(edges))
        # Twice the integral of x dy; horizontal edges contribute nothing.
        a2 = sum([(xs[i - 1] + xs[i]) * (ys[i] - ys[i - 1]) for i in range(n)])
        object.__setattr__(self, "area2", Fraction(a2, d * d))
        object.__setattr__(self, "_prefix", None)
        object.__setattr__(self, "_vertex_pos", None)
        object.__setattr__(self, "_ints", _ints)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_shots", {})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RectPolygon is immutable")

    # ---------------------------------------------------------------- queries

    def reflex_edges(self) -> List[EdgeRef]:
        return [e for e in self.edges if e.kind == "reflex"]

    def reflex_counts(self, s: int, t: int) -> Tuple[int, int]:
        """(reflex vertices, reflex edges) among indices s, s+1, ..., t-1 taken
        cyclically, none when s = t (mod n): a difference of prefix counts
        along the boundary, which are built on first use."""
        if self._prefix is None:
            object.__setattr__(self, "_prefix", (list(accumulate([c == REFLEX for c in self.classes], initial=0)),
                                                 list(accumulate([e.kind == "reflex" for e in self.edges], initial=0))))
        rv, re = self._prefix
        s, t = s % self.n, t % self.n
        wrap = self.n if s > t else 0
        return rv[t] - rv[s] + rv[wrap], re[t] - re[s] + re[wrap]

    def area(self) -> Fraction:
        return self.area2 / 2

    def bbox(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def vertex_index(self, p: Point) -> Optional[int]:
        """The index of vertex p, else None, from a dict built on first use."""
        if self._vertex_pos is None:
            object.__setattr__(self, "_vertex_pos", {v: i for i, v in enumerate(self.vertices)})
        return self._vertex_pos.get(p)

    def edge_index(self) -> Tuple[int, dict]:
        """(D, {"H": (levels, rows), "V": (levels, rows)}), built on first use
        from the ints the polygon was classified on, without scaling again: D
        is a common denominator of the coordinates, not always the least, and
        rows are the edges of one orientation as (level, lo, hi, vertex at
        lo, vertex at hi, edge index), coordinates times D as ints, sorted by
        level and so along each line across them."""
        if self._index is None:
            d, xs, ys = self._ints
            rows = {"H": [], "V": []}
            for i, e in enumerate(self.edges):
                j = (i + 1) % self.n
                level, u, w = (ys[i], xs[i], xs[j]) if e.orientation == "H" else (xs[i], ys[i], ys[j])
                rows[e.orientation].append((level, u, w, i, j, i) if u < w else (level, w, u, j, i, i))
            for r in rows.values():
                r.sort()
            object.__setattr__(self, "_index", (d, {o: ([row[0] for row in r], r) for o, r in rows.items()}))
        return self._index

    def shots(self, o: str) -> list:
        """The shot table's rows of orientation o, built on first use:
        rows[i] is (forward, far, end) for the chord of orientation o
        through reflex vertex i, else None.  The chord extends i's incident
        edge of orientation o, away from it, to the first contact of that
        ray, found by one sweep over the ints the polygon was classified on
        (_shot_row); validate fills the "V" rows in its crossing sweep, and
        its general-position check reads the table.  forward says that the
        ray runs east or north, far is the far end's coordinate along the
        chord, and end locates it: (vertex, True) when the contact edge ends
        on the chord's line, else (edge, False)."""
        if o not in self._shots:
            _, xs, ys = self._ints
            along, across, perp = (ys, xs, "V") if o == "H" else (xs, ys, "H")
            rows = self._shots[o] = [None] * self.n
            perp_ids = [e.index for e in self.edges if e.orientation == perp]
            for i, active in _sweep(self.n, along, across, perp_ids,
                                    [(along[i], i) for i in self.reflex_indices]):
                rows[i] = _shot_row(self.vertices, o, along, across, i, active)
        return self._shots[o]

    def contains(self, p: Point) -> str:
        """'in', 'on' or 'out' (closed polygon; exact)."""
        where = self.locate_scaled(*self._scale_point(p))
        return "on" if isinstance(where, tuple) else where

    def _scale_point(self, p: Point) -> Tuple[int, int, int]:
        """(x, y, q): p times D*q as ints, q the common denominator of p."""
        q = lcm(p.x.denominator, p.y.denominator)
        s = self.edge_index()[0] * q
        return p.x.numerator * (s // p.x.denominator), p.y.numerator * (s // p.y.denominator), q

    def locate_scaled(self, x: int, y: int, q: int) -> Union[Tuple[int, bool], str]:
        """Where the point (x, y) / (D*q) lies, D the edge index's scale:
        (vertex index, True) at a vertex, (edge index, False) inside an
        edge, else 'in' or 'out'.  Every vertex ends a vertical edge, so the
        horizontal rows at its level only hold edge interiors.  Off the
        boundary, the point is inside iff the nearest vertical edge right of
        it that spans the row floor(y / q), lower end in, upper end out,
        runs north: the interior lies left of every edge, and the edges
        across the row alternate in direction.  Likewise it is inside iff
        the nearest such edge left of it runs south.  The side with fewer
        edges is walked, outward from the point."""
        _, index = self.edge_index()
        (levels, rows), (hlevels, hrows) = index["V"], index["H"]
        if x % q == 0:
            c = x // q
            for _, lo, hi, vlo, vhi, i in rows[bisect_left(levels, c):bisect_right(levels, c)]:
                if lo * q <= y <= hi * q:
                    return (vlo, True) if y == lo * q else (vhi, True) if y == hi * q else (i, False)
        if y % q == 0:
            c = y // q
            for _, lo, hi, _, _, i in hrows[bisect_left(hlevels, c):bisect_right(hlevels, c)]:
                if lo * q < x < hi * q:
                    return (i, False)
        row, k = y // q, bisect_right(levels, x // q)
        # A row runs north iff its edge starts at its lower end.
        if 2 * k >= len(rows):
            for _, lo, hi, vlo, _, i in rows[k:]:
                if lo <= row < hi:
                    return "in" if vlo == i else "out"
        else:
            for _, lo, hi, vlo, _, i in reversed(rows[:k]):
                if lo <= row < hi:
                    return "out" if vlo == i else "in"
        return "out"

    def monotonicity(self) -> dict:
        """x-monotone iff no vertical reflex edge; y-monotone iff no horizontal one."""
        reflex = {e.orientation for e in self.edges if e.kind == "reflex"}
        return {"x_monotone": "V" not in reflex, "y_monotone": "H" not in reflex}

    def is_xy_monotone(self) -> bool:
        m = self.monotonicity()
        return m["x_monotone"] and m["y_monotone"]

    # ------------------------------------------------------- boundary walking

    def locate_boundary(self, p: Point) -> Optional[Tuple[int, bool]]:
        """(edge index, at_start_vertex) for a boundary point, else None.

        at_start_vertex is True when p is exactly vertices[index].
        """
        where = self.locate_scaled(*self._scale_point(p))
        return where if isinstance(where, tuple) else None

    # ---------------------------------------------------------------- display

    def __repr__(self):
        return f"RectPolygon(n={self.n}, r={self.r})"

    def __eq__(self, other):
        return isinstance(other, RectPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)


# ------------------------------------------------------------------ validate


def validate(vertex_list: Iterable, merge_collinear: bool = False,
             check_general_position: bool = True,
             _ints: Optional[Tuple[int, List[int], List[int]]] = None) -> RectPolygon:
    """Validate a vertex list into a RectPolygon.

    Accepts Points or (x, y) pairs of ints/strings/Fractions.  Clockwise
    input is reversed automatically and flagged via .was_reversed.  _ints is
    (D, xs, ys) of the vertices if the caller has them, as RectPolygon
    takes it.  The checks run in a fixed order, and the first that fails
    raises: repeated vertex, axis-parallel edges, alternation, overlapping
    collinear edges, crossing edges, n = 2r+4, general position.
    """
    pts: List[Point] = []
    for item in vertex_list:
        if isinstance(item, Point):
            pts.append(item)
        else:
            x, y = item
            pts.append(Point(scalar(x), scalar(y)))
    if len(pts) < 4:
        raise NotRectilinear("a rectilinear polygon needs at least 4 vertices")
    if merge_collinear:
        pts, (d, xs, ys), _ = _merge_ring(pts, _ints)
        if len(pts) < 4:
            raise NotRectilinear("degenerate polygon after merging collinear vertices")
    else:
        d, xs, ys = _scaled(pts) if _ints is None else _ints

    n = len(pts)
    # The coordinates times D, as ints: every later comparison is between ints.
    if len(set(zip(xs, ys))) != n:
        raise NotSimple("repeated vertex")
    # Axis-parallel edges, alternating orientation.
    orients = []
    for i in range(n):
        j = (i + 1) % n
        if (xs[i] == xs[j]) == (ys[i] == ys[j]):
            raise NotRectilinear(f"edge {pts[i]}->{pts[j]} is not axis-parallel (or has zero length)")
        orients.append("V" if xs[i] == xs[j] else "H")
    for i in range(n):
        if orients[i] == orients[(i + 1) % n]:
            raise NotRectilinear(
                f"consecutive collinear edges at vertex {pts[(i + 1) % n]}; "
                "either fix the input or pass merge_collinear=True"
            )
    _check_overlaps(pts, orients, xs, ys)

    # Orientation: normalize to CCW.  The lowest of the leftmost vertices of
    # a simple polygon is convex, so its turn gives the orientation.  Until
    # the crossing check has passed, the ring may not be simple, and the
    # classes and shot rows below are only provisional.
    k = min(zip(xs, ys, range(n)))[2]
    was_reversed = _turn(xs, ys, k - 1, k, (k + 1) % n) < 0
    verts, cx, cy = (pts[::-1], xs[::-1], ys[::-1]) if was_reversed else (pts, xs, ys)
    classes = _classify(verts, cx, cy)
    reflex = [i for i in range(n) if classes[i] == REFLEX]

    # One sweep along x, over the horizontal edges, answers the crossing
    # check at the vertical edges (items j < n, input indices, so that the
    # first crossing reported is the same in either orientation) and the
    # vertical shot rows at the reflex vertices (items n + i).
    h_ids = [i for i in range(n) if cy[i] == cy[(i + 1) % n]]
    queries = [(xs[j], j) for j in range(n) if orients[j] == "V"]
    queries += [(cx[i], n + i) for i in reflex]
    v_rows: List[Optional[tuple]] = [None] * n
    for item, active in _sweep(n, cx, cy, h_ids, queries):
        if item >= n:
            v_rows[item - n] = _shot_row(verts, "V", cx, cy, item - n, active)
            continue
        lo, hi = sorted((ys[item], ys[(item + 1) % n]))
        a = bisect_left(active, (lo + 1) * n)
        if a < len(active) and active[a] < hi * n:
            i = active[a] % n
            # Reversed, edge i joins input vertices n-1-i and n-2-i.
            i = (n - 2 - i) % n if was_reversed else i
            raise NotSimple(f"edges {i} and {item} intersect at ({pts[item].x},{pts[i].y})")

    poly = RectPolygon(verts, was_reversed=was_reversed, _trusted=True, _ints=(d, cx, cy),
                       _classes=classes)
    poly._shots["V"] = v_rows
    if check_general_position:
        _check_general_position(poly)
    return poly


def _sweep(n: int, along: List[int], across: List[int], edges: List[int], queries: list):
    """Answer queries at coordinates of one axis against the edges crossing it.

    along and across are the vertex coordinates times D, as ints, along the
    axis and across it.  queries holds (c, item) pairs, item in range(2n).
    In order of c, then of item, this yields (item, active): active is the
    sorted list of the keys across[i] * n + i of the edges i whose closed
    span contains c, so it is ordered by their level.  The list is reused;
    read it before advancing.  One sort orders every event, an edge's start
    before the queries at its coordinate and its end after.
    """
    m = 2 * n
    events = []
    for i in edges:
        a, b = along[i], along[(i + 1) % n]
        if a > b:
            a, b = b, a
        events += (a * 3 * m + i, (b * 3 + 2) * m + i)
    events += [(c * 3 + 1) * m + item for c, item in queries]
    events.sort()
    active: List[int] = []
    for event in events:
        ck, i = divmod(event, m)
        kind = ck % 3
        if kind == 1:
            yield i, active
        elif kind == 0:
            insort(active, across[i] * n + i)
        else:
            del active[bisect_left(active, across[i] * n + i)]


def _check_overlaps(pts: List[Point], orients: List[str], xs: List[int], ys: List[int]) -> None:
    """NotSimple if two collinear edges touch; they are compared in sorted
    order.  Once none of them touch, no vertex lies on another edge, so two
    edges can only meet in a crossing: a horizontal edge at a level strictly
    inside a vertical edge's range, which validate's sweep looks for."""
    n = len(pts)
    for o, along, across, name, axis in (("H", xs, ys, "horizontal", "y"),
                                         ("V", ys, xs, "vertical", "x")):
        spans = []
        for i in range(n):
            if orients[i] == o:
                a, b = along[i], along[(i + 1) % n]
                spans.append((across[i], a, b, i) if a < b else (across[i], b, a, i))
        spans.sort()
        for (l0, _, hi0, i), (l1, lo1, _, j) in zip(spans, spans[1:]):
            if l0 == l1 and lo1 <= hi0:
                raise NotSimple(f"{name} edges {i} and {j} overlap on {axis}={getattr(pts[i], axis)}")


def _shot_row(verts: Sequence[Point], o: str, along: List[int], across: List[int],
              i: int, active: List[int]) -> Optional[tuple]:
    """The shot table row of reflex vertex i for the chord of orientation o
    (see RectPolygon.shots), from the active perpendicular edges of a sweep
    at along[i].  along and across are the vertex coordinates times D, as
    ints, along and across those edges.  The ray extending i's incident edge
    that is parallel to it, away from that edge, first meets the nearest
    active edge on its side of i.  None if there is none, which only a ring
    that is not simple allows."""
    n = len(along)
    # The incident edge parallel to the ray runs from its other end u to i.
    u = i - 1 if along[i - 1] == along[i] else (i + 1) % n
    forward = across[i] > across[u]
    a = bisect_left(active, (across[i] + forward) * n) - (not forward)
    if not 0 <= a < len(active):
        return None
    k = active[a] % n
    j = (k + 1) % n
    end = (k, True) if along[k] == along[i] else (j, True) if along[j] == along[i] else (k, False)
    return forward, verts[k].x if o == "H" else verts[k].y, end


def _check_general_position(poly: RectPolygon) -> None:
    """GeneralPositionViolated if an axis cut joins two reflex vertices.

    Such a cut leaves each of its ends along the extension of an incident
    edge, and meets the boundary nowhere in between.  So it is the chord of
    a shot table row, both orientations, whose far end is a vertex: the ray
    reaches that vertex through the interior, so it is reflex too.  Of all
    pairs, the one reported is the first in the order of the reflex vertices.
    """
    pairs = []
    for o in "HV":
        for i, row in enumerate(poly.shots(o)):
            if row is not None and row[2][1]:
                u = row[2][0]
                pairs.append((min(i, u), max(i, u)))
    if pairs:
        a, b = (poly.vertices[i] for i in min(pairs))
        raise GeneralPositionViolated(f"cut connects reflex vertices {a} and {b}", pair=(a, b))


# --------------------------------------------------------------- lines, cuts


def chords_on_line(poly: RectPolygon, axis: str, level: Fraction) -> List[Chord]:
    """The chords of poly on an axis line, in increasing order.

    axis 'H' means the horizontal line y=level.  The edge index rows of the
    other orientation are already in order along the line; on the line
    scaled by D, a common denominator, int compares tell which of them reach
    just below it and which just above.  Those below pair up into the
    intervals inside poly just below the line, and those above into the
    intervals just above.  A chord is where an interval from below overlaps
    one from above, so boundary runs on the line are never part of one.
    Each end is (vertex index, True) when its edge ends on the line, else
    (edge index, False).
    """
    d, index = poly.edge_index()
    # The scaled line lies in [floor, ceil], one int when it is a vertex level.
    floor, ceil = level.numerator * d // level.denominator, -(-level.numerator * d // level.denominator)
    below, above = [], []
    for row in index["V" if axis == "H" else "H"][1]:
        c, lo, hi, vlo, vhi, i = row
        if hi < ceil or floor < lo:
            continue
        reaches_below, reaches_above = lo < ceil, floor < hi
        end = (i, False) if reaches_below and reaches_above else (vhi if reaches_below else vlo, True)
        if reaches_below:
            below.append((c, i, end))
        if reaches_above:
            above.append((c, i, end))
    lows, highs = list(zip(below[::2], below[1::2])), list(zip(above[::2], above[1::2]))
    chords: List[Chord] = []
    i = j = 0
    # Walk both interval lists, dropping whichever ends first; ends at one
    # coordinate belong to one edge.
    while i < len(lows) and j < len(highs):
        (l0, l1), (h0, h1) = lows[i], highs[j]
        lo = l0 if h0[0] < l0[0] else h0
        low_ends_first = l1[0] < h1[0]
        hi = l1 if low_ends_first else h1
        if lo[0] < hi[0]:
            ends = (lo[2], hi[2])
            chords.append(Chord(axis, level, poly.edges[lo[1]].level, poly.edges[hi[1]].level, ends))
        if low_ends_first:
            i += 1
        else:
            j += 1
    return chords


def _reach(c: int, dc: int, q: int, t_max: Optional[Fraction], levels: List[int]) -> Tuple[int, int]:
    """Closed range of the integers L with L*q on the stretch from c to
    c + t_max*dc, one coordinate of a ray scaled by q; the least or the
    greatest of the sorted levels stands in for an unbounded end."""
    near_lo, near_hi = -(-c // q), c // q
    if dc == 0:
        return near_lo, near_hi
    if t_max is None:
        return (near_lo, levels[-1]) if dc > 0 else (levels[0], near_hi)
    far, den = c * t_max.denominator + t_max.numerator * dc, q * t_max.denominator
    return (near_lo, far // den) if dc > 0 else (-(-far // den), near_hi)


def boundary_hits(poly: RectPolygon, z: Point, d: Point,
                  t_max: Optional[Fraction] = None) -> List[Tuple[Fraction, Point, str, int]]:
    """Boundary contacts of the ray z + t*d for 0 < t (<= t_max), sorted by t.

    A contact is (t, point, 'vertex', vertex index), or (t, point, 'edge',
    edge index) for a point interior to that edge; at equal t a vertex comes
    first.  An edge collinear with the ray contributes only its endpoints,
    which its perpendicular neighbours report.  The ray is scaled to
    integers by D*q, q the common denominator of z and d: the edge index
    gives the edges whose level lies in the ray's extent by bisection, int
    compares drop those whose span misses it, and integer cross-multiplying
    places the contact on the rest.
    """
    scale, index = poly.edge_index()
    q = lcm(z.x.denominator, z.y.denominator, d.x.denominator, d.y.denominator)
    zx, zy, dx, dy = (c.numerator * (scale * q // c.denominator) for c in (z.x, z.y, d.x, d.y))
    reach = {o: _reach(c, dc, q, t_max, index[o][0]) for o, c, dc in (("V", zx, dx), ("H", zy, dy))}
    found = {}
    # By edge orientation: the ray across the edges, then along them.
    for o, zl, dl, zu, du, along in (("V", zx, dx, zy, dy, "H"), ("H", zy, dy, zx, dx, "V")):
        if dl == 0:
            continue
        levels, rows = index[o]
        (llo, lhi), (ulo, uhi) = reach[o], reach[along]
        qw, sign = q * abs(dl), (1 if dl > 0 else -1)
        for level, lo, hi, vlo, vhi, i in rows[bisect_left(levels, llo):bisect_right(levels, lhi)]:
            num = level * q - zl  # t = num / dl
            if num == 0 or hi < ulo or lo > uhi:
                continue
            # The contact's coordinate along the edge, times D*q*|dl|.
            u = (zu * dl + num * du) * sign
            if u == lo * qw:
                found["vertex", vlo] = (Fraction(num, dl), poly.vertices[vlo])
            elif u == hi * qw:
                found["vertex", vhi] = (Fraction(num, dl), poly.vertices[vhi])
            elif lo * qw < u < hi * qw:
                at, across = Fraction(u, qw * scale), poly.edges[i].level
                found["edge", i] = (Fraction(num, dl), Point(across, at) if o == "V" else Point(at, across))
    hits = [(t, pt, kind, i) for (kind, i), (t, pt) in found.items()]
    hits.sort(key=lambda h: (h[0], h[2] == "edge"))
    return hits


def vertex_chord(poly: RectPolygon, i: int, o: str) -> Chord:
    """The chord of orientation o through reflex vertex i.

    It extends i's incident edge of orientation o: it runs from the vertex,
    away from that edge, to the first boundary contact of the ray, read off
    the polygon's shot table.
    """
    i %= poly.n
    p = poly.vertices[i]
    if poly.classes[i] != REFLEX:
        raise NotAChord(f"no {o} cut at non-reflex vertex {p}")
    level, at = (p.y, p.x) if o == "H" else (p.x, p.y)
    forward, far, there = poly.shots(o)[i]
    chord = (Chord(o, level, at, far, ((i, True), there)) if forward
             else Chord(o, level, far, at, (there, (i, True))))
    _assert_chord(poly, chord)
    return chord


def chord_beside(poly: RectPolygon, i: int, o: str, sense: int) -> Chord:
    """The chord of orientation o just below or left of vertex i (sense -1),
    or just above or right of it (sense +1): on the line midway between i's
    level and the nearest distinct vertex level on that side, the chord
    that spans i's coordinate along it."""
    p = poly.vertices[i % poly.n]
    coord, at = (p.y, p.x) if o == "H" else (p.x, p.y)
    d, index = poly.edge_index()
    levels, num, den = index[o][0], coord.numerator * d, coord.denominator
    k = bisect_right(levels, num // den) if sense > 0 else bisect_left(levels, -(-num // den)) - 1
    if not 0 <= k < len(levels):
        where = (("below", "left of"), ("above", "right of"))[sense > 0][o == "V"]
        raise NotAChord(f"no polygon level {where} {coord}")
    level = (coord + Fraction(levels[k], d)) / 2
    chord = next((c for c in chords_on_line(poly, o, level) if c.lo <= at <= c.hi), None)
    if chord is None:
        raise NotAChord(f"no chord of line {o}={level} reaches {p}")
    _assert_chord(poly, chord)
    return chord


def _assert_chord(poly: RectPolygon, chord: Chord) -> None:
    """NotAChord unless the chord's midpoint lies inside poly, located on
    the ints: the midpoint times D*q, q twice the common denominator of the
    chord's level and ends, is integral."""
    level, lo, hi = chord.level, chord.lo, chord.hi
    m = lcm(level.denominator, lo.denominator, hi.denominator)
    s = poly.edge_index()[0] * m
    c = level.numerator * (2 * s // level.denominator)
    mid = lo.numerator * (s // lo.denominator) + hi.numerator * (s // hi.denominator)
    if poly.locate_scaled(*((mid, c) if chord.axis == "H" else (c, mid)), 2 * m) != "in":
        raise NotAChord(f"{chord} does not run through the interior")


# -------------------------------------------------------------------- split


def split(poly: RectPolygon, chord: Chord) -> Tuple[RectPolygon, RectPolygon]:
    """Split along a located chord: returns (P_minus, P_plus).

    P_minus is below a horizontal cut / left of a vertical one, in the
    locally-adjacent sense: it is the piece whose interior touches the chord
    from that side (it may still reach around to the other side elsewhere).
    """
    starts = tuple((0, side.first) for side in chord_sides(chord))
    rings = _cut_rings(poly, [chord], starts)
    return _piece(rings[starts[0]]), _piece(rings[starts[1]])


# One side of a located chord: its vertices are s, s+1, ..., t-1 (cyclic),
# those strictly between the chord's ends on the CCW walk that leaves the
# chord at end `first` (0 for a, 1 for b) and returns at the other end.
Side = namedtuple("Side", "s t first")


def walk_range(leave: Tuple[int, bool], reach: Tuple[int, bool]) -> Tuple[int, int]:
    """(s, t): the CCW walk from one located boundary point to another passes
    the vertices s, s+1, ..., t-1 (cyclic): from the vertex after the first
    up to the vertex of the second, or just past the edge holding it."""
    (i, _), (j, j_vertex) = leave, reach
    return i + 1, j if j_vertex else j + 1


def chord_sides(chord: Chord) -> Tuple[Side, Side]:
    """(minus side, plus side) of a located chord: the boundary walks that,
    closed back along the chord, enclose what lies below / left of it and
    what lies above / right of it.

    The walk from a to b closes from b to a and keeps what it encloses on
    its left: westward along a horizontal chord that is the part below it,
    southward along a vertical one the part right of it.
    """
    a, b = chord.ends
    a_to_b = Side(*walk_range(a, b), 0)
    b_to_a = Side(*walk_range(b, a), 1)
    return (a_to_b, b_to_a) if chord.axis == "H" else (b_to_a, a_to_b)


def pocket_side(poly: RectPolygon, edge_index: int, vertex_index: int) -> Tuple[Chord, Side]:
    """The chord of the cut extending reflex edge e through its endpoint v,
    and the Side of it that is the pocket, the side without e."""
    e = poly.edges[edge_index % poly.n]
    if e.kind != "reflex":
        raise NotAChord(f"edge {edge_index} is not a reflex edge")
    vi = vertex_index % poly.n
    if vi not in (e.index, (e.index + 1) % poly.n):
        raise NotAChord(f"vertex {vertex_index} is not an endpoint of edge {edge_index}")
    chord = vertex_chord(poly, vi, e.orientation)
    minus, plus = chord_sides(chord)
    # The walk from v starts along e when e leaves v, so the pocket is then
    # the side whose walk stops at v; otherwise the one that starts there.
    return chord, minus if (minus.t == vi) == (e.index == vi) else plus


def _cyclic(seq: Sequence, s: int, t: int) -> Sequence:
    """seq[s], seq[s+1], ..., seq[t-1], indices taken cyclically."""
    s, t = s % len(seq), t % len(seq)
    return seq[s:t] if s <= t else [*seq[s:], *seq[:t]]


def _cut_rings(poly: RectPolygon, chords: Sequence[Chord], starts) -> dict:
    """{start: Ring}, in boundary order: the unmerged ring of each piece
    that pairwise disjoint located chords cut poly into and that leaves a
    chord at an end in starts, (k, 0) for chords[k].a, (k, 1) for its b.  A
    ring runs from that end along the boundary to the next chord end,
    crosses its chord and so on, until it is back.  M is the common
    denominator of D and the chords' coordinates: poly's ints are multiplied
    up to it and the chord ends scaled by it.  A walk that leaves a chord
    at vertex or inside edge i runs along edge i first, and each vertex it
    passes starts the edge of its own index."""
    # Every chord end in boundary order: a vertex before the interior of the
    # edge that starts there.
    ends = [(k, e) for _, k, e in sorted(((i, not vertex), k, e) for k, chord in enumerate(chords)
                                         for e, (i, vertex) in enumerate(chord.ends))]
    following = {end: ends[m + 1 - len(ends)] for m, end in enumerate(ends)}
    d, xs, ys = poly._ints
    m = lcm(d, *(c.denominator for chord in chords for c in (chord.level, chord.lo, chord.hi)))
    xs, ys = (xs, ys) if m == d else ([x * (m // d) for x in xs], [y * (m // d) for y in ys])
    at = []  # per chord: its ends as (point, x, y), the ints times M
    for chord in chords:
        level, lo, hi = (c.numerator * (m // c.denominator) for c in (chord.level, chord.lo, chord.hi))
        at.append(((chord.a, lo, level), (chord.b, hi, level)) if chord.axis == "H"
                  else ((chord.a, level, lo), (chord.b, level, hi)))
    rings, seen, indices = {}, set(), range(poly.n)
    for start in ends:
        if start not in starts or start in seen:
            continue
        ring, rx, ry, segs = [], [], [], []
        end = start
        while True:
            if end in seen:
                raise InternalCaseError(f"cut walk on {chords[0].axis}={chords[0].level} revisits a chord end")
            seen.add(end)
            (k, e), (k2, e2) = end, following[end]
            leave = chords[k].ends[e]
            s, t = walk_range(leave, chords[k2].ends[e2])
            for out, seq, first, last in zip((ring, rx, ry), (poly.vertices, xs, ys), at[k][e], at[k2][e2]):
                out += [first, *_cyclic(seq, s, t), last]
            segs += [leave[0], *_cyclic(indices, s, t), ~k2]
            end = (k2, 1 - e2)
            if end == start:
                break
        rings[start] = Ring(ring, (m, rx, ry), segs)
    return rings


def count_reflex_below(poly: RectPolygon, chord: Chord) -> int:
    """Number of reflex vertices of poly strictly inside the P_minus side of a chord."""
    minus, _ = chord_sides(chord)
    return poly.reflex_counts(minus.s, minus.t)[0]


def m_cut_class(poly: RectPolygon, chord: Chord) -> int:
    """m of the m-cut classification: r(P_minus) mod 3."""
    return count_reflex_below(poly, chord) % 3


def pocket(poly: RectPolygon, edge_index: int, vertex_index: int) -> RectPolygon:
    """Pocket of reflex edge e at endpoint v: the split side not containing
    e, from a walk that starts there only: the other piece is not built."""
    chord, side = pocket_side(poly, edge_index, vertex_index)
    start = (0, side.first)
    return _piece(_cut_rings(poly, [chord], (start,))[start])


# --------------------------------------------------- normal cut enumeration


def iter_normal_cuts(poly: RectPolygon, orientation: str) -> Iterator[Tuple[Chord, int]]:
    """(chord, r(P_minus)) for every combinatorial class of normal cuts of
    one orientation, generated band by band in increasing level order.

    Bands between consecutive distinct vertex levels, the levels of the edge
    index rows of the cut's orientation, each contribute one representative
    chord per class; r(P_minus) is constant within a class.  A band's
    midpoint is no vertex level, so the index rows across it, already in
    order along it, pair up into its chords, each ending inside two edges,
    and r(P_minus) is a prefix count between them.
    """
    d, index = poly.edge_index()
    levels = list(dict.fromkeys(index[orientation][0]))
    across = index["V" if orientation == "H" else "H"][1]
    for below, above in zip(levels, levels[1:]):
        ends = [i for _, lo, hi, _, _, i in across if lo <= below < hi]
        t = Fraction(below + above, 2 * d)
        for i, j in zip(ends[::2], ends[1::2]):
            chord = Chord(orientation, t, poly.edges[i].level, poly.edges[j].level, ((i, False), (j, False)))
            minus, _ = chord_sides(chord)
            yield chord, poly.reflex_counts(minus.s, minus.t)[0]
