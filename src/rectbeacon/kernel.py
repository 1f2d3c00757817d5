"""The beacon kernel of a rectilinear polygon.

kernel() implements the linear-time characterization: the kernel equals the
intersection of the polygon with the axis box spanned by the supporting
half-planes of its reflex edges.  kernel_oracle() recomputes the same set
from first principles by clipping away the complement cone of every reflex
vertex, and exists to check it.  Its clip, clip_split, cuts one chord at a
time where kernel()'s clip_fast walks every chord of the line at once, but
both take their chords from chords_on_line, their sides from chord_sides
and their rings from the one boundary walk (_cut_rings), and build their
pieces with _piece: a fault there can reach both sides of the comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .clipping import clip_fast, clip_split
from .errors import InternalCaseError
from .geometry import Point
from .polygon import RectPolygon


class KernelRegion:
    """Kernel as a region: one polygon, or empty (possibly degenerate).

    degenerate=True marks a measure-zero kernel (a boundary segment or
    point): no region polygon exists, yet a single beacon still covers the
    polygon from there.
    """

    __slots__ = ("pieces", "degenerate", "bounds")

    def __init__(self, pieces: List[RectPolygon], degenerate: bool,
                 bounds: Tuple[Optional[Fraction], Optional[Fraction],
                               Optional[Fraction], Optional[Fraction]]):
        self.pieces = pieces
        self.degenerate = degenerate
        self.bounds = bounds  # (x_lo, x_hi, y_lo, y_hi); None = unbounded

    @property
    def region(self) -> Optional[RectPolygon]:
        return self.pieces[0] if self.pieces else None

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def __repr__(self):
        if self.pieces:
            return f"KernelRegion({self.region!r})"
        return f"KernelRegion(empty, degenerate={self.degenerate})"


def reflex_rect(poly: RectPolygon):
    """Bounds of R(P): the intersection of all reflex-edge half-planes.

    Returns (x_lo, x_hi, y_lo, y_hi), None meaning the side is unbounded.
    """
    levels = {}  # (orientation, sense) -> the levels of those reflex edges
    for e in poly.edges:
        if e.kind == "reflex":
            levels.setdefault((e.orientation, e.sense), []).append(e.level)
    # The tightest level per (orientation, sense): the greatest lower bound, the least upper one.
    return tuple((max if s > 0 else min)(levels[o, s]) if (o, s) in levels else None
                 for o, s in (("V", 1), ("V", -1), ("H", 1), ("H", -1)))


def _box_touches_boundary(poly: RectPolygon, bounds) -> bool:
    """Does the (possibly unbounded, possibly flat) box meet the boundary?"""
    x_lo, x_hi, y_lo, y_hi = bounds

    def in_box(axis_lo, axis_hi, lo, hi):
        a = lo if axis_lo is None else max(lo, axis_lo)
        b = hi if axis_hi is None else min(hi, axis_hi)
        return a <= b

    for e in poly.edges:
        (x1, y1), (x2, y2) = (e.a.x, e.a.y), (e.b.x, e.b.y)
        lox, hix = (x1, x2) if x1 <= x2 else (x2, x1)
        loy, hiy = (y1, y2) if y1 <= y2 else (y2, y1)
        if in_box(x_lo, x_hi, lox, hix) and in_box(y_lo, y_hi, loy, hiy):
            return True
    return False


def kernel(poly: RectPolygon) -> KernelRegion:
    """Beacon kernel via four half-plane clips of the boundary."""
    bounds = reflex_rect(poly)
    x_lo, x_hi, y_lo, y_hi = bounds
    if (x_lo is not None and x_hi is not None and x_lo > x_hi) or (
            y_lo is not None and y_hi is not None and y_lo > y_hi):
        return KernelRegion([], False, bounds)
    pieces = [poly]
    for axis, c, keep_low in (
        ("x", x_lo, False),
        ("x", x_hi, True),
        ("y", y_lo, False),
        ("y", y_hi, True),
    ):
        if c is None:
            continue
        nxt: List[RectPolygon] = []
        for p in pieces:
            nxt.extend(clip_fast(p, axis, c, keep_low))
        pieces = nxt
        if not pieces:
            break
    if len(pieces) > 1:
        raise InternalCaseError(
            f"kernel produced {len(pieces)} components; expected at most one"
        )
    degenerate = False
    if not pieces:
        degenerate = _box_touches_boundary(poly, bounds)
    return KernelRegion(pieces, degenerate, bounds)


def _cone_halfplanes(poly: RectPolygon, i: int):
    """C_v = N1 | N2 for reflex vertex i, as (axis, c, keep_low) triples."""
    v = poly.vertices[i]
    out = []
    for w in (poly.vertices[(i - 1) % poly.n], poly.vertices[(i + 1) % poly.n]):
        if w.x == v.x:
            # incident edge vertical: N is the half-plane below/above v
            out.append(("y", v.y, w.y > v.y))
        else:
            out.append(("x", v.x, w.x > v.x))
    return out


def _anti(hp):
    axis, c, keep_low = hp
    return (axis, c, not keep_low)


def kernel_oracle(poly: RectPolygon) -> KernelRegion:
    """Kernel from the cone characterization, by iterated quadrant clipping."""
    from .regions import consolidate

    pieces: List[RectPolygon] = [poly]
    for i in poly.reflex_indices:
        n1, n2 = _cone_halfplanes(poly, i)
        nxt: List[RectPolygon] = []
        for p in pieces:
            nxt.extend(clip_split(p, *n1))
            for q in clip_split(p, *n2):
                nxt.extend(clip_split(q, *_anti(n1)))
        pieces = nxt
    pieces = consolidate(pieces)
    degenerate = False
    if not pieces:
        degenerate = _oracle_degenerate_probe(poly)
    return KernelRegion(pieces, degenerate, reflex_rect(poly))


def _point_in_cone(poly: RectPolygon, i: int, p: Point) -> bool:
    for axis, c, keep_low in _cone_halfplanes(poly, i):
        v = p.x if axis == "x" else p.y
        if (v <= c) if keep_low else (v >= c):
            return True
    return False


def in_all_cones(poly: RectPolygon, p: Point) -> bool:
    """Membership test for the cone characterization (independent path)."""
    return all(_point_in_cone(poly, i, p) for i in poly.reflex_indices)


def _oracle_degenerate_probe(poly: RectPolygon) -> bool:
    """Is some boundary point inside every reflex cone?

    Candidates: vertices plus crossings of every edge with every cone
    boundary line; a measure-zero kernel always has such an extreme point.
    """
    lines_x = set()
    lines_y = set()
    for i in poly.reflex_indices:
        for axis, c, _ in _cone_halfplanes(poly, i):
            (lines_x if axis == "x" else lines_y).add(c)
    candidates = set(poly.vertices)
    for e in poly.edges:
        lo, hi = e.span()
        if e.orientation == "H":
            for c in lines_x:
                if lo <= c <= hi:
                    candidates.add(Point(c, e.a.y))
        else:
            for c in lines_y:
                if lo <= c <= hi:
                    candidates.add(Point(e.a.x, c))
    return any(in_all_cones(poly, p) for p in candidates)
