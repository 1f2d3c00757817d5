"""Independent oracle for polygon validation: the pairwise checks.

The simplicity and general-position checks that validate() ran before its
axis sweeps, kept unchanged: every horizontal edge against every vertical
edge in its x-range, and every aligned pair of reflex vertices tested for
an open segment through the interior.  rectbeacon.polygon.validate is
checked against them.
"""

from fractions import Fraction
from typing import List

from rectbeacon.errors import GeneralPositionViolated, NotSimple
from rectbeacon.geometry import Point, midpoint
from rectbeacon.polygon import RectPolygon


def _check_simple(pts: List[Point], orients: List[str]) -> None:
    n = len(pts)
    h_edges = []  # (y, x1, x2, i)
    v_edges = []  # (x, y1, y2, i)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if orients[i] == "H":
            x1, x2 = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
            h_edges.append((a.y, x1, x2, i))
        else:
            y1, y2 = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
            v_edges.append((a.x, y1, y2, i))
    h_edges.sort()
    for k in range(1, len(h_edges)):
        y0, x1, x2, i = h_edges[k - 1]
        y1_, x3, x4, j = h_edges[k]
        if y0 == y1_ and x3 <= x2:
            raise NotSimple(f"horizontal edges {i} and {j} overlap on y={y0}")
    v_sorted = sorted(v_edges)
    for k in range(1, len(v_sorted)):
        x0, y1, y2, i = v_sorted[k - 1]
        x1_, y3, y4, j = v_sorted[k]
        if x0 == x1_ and y3 <= y2:
            raise NotSimple(f"vertical edges {i} and {j} overlap on x={x0}")
    # Horizontal x vertical contacts: only adjacent edges may touch (at their
    # shared vertex).
    import bisect

    v_xs = [v[0] for v in v_sorted]
    for y, x1, x2, i in h_edges:
        kx = bisect.bisect_left(v_xs, x1)
        while kx < len(v_sorted) and v_sorted[kx][0] <= x2:
            x, y1, y2, j = v_sorted[kx]
            kx += 1
            if y1 <= y <= y2:
                if (j - i) % n == 1 or (i - j) % n == 1:
                    continue  # consecutive edges share one endpoint by design
                raise NotSimple(f"edges {i} and {j} intersect at ({x},{y})")


def _check_general_position(poly: RectPolygon) -> None:
    refl = [poly.vertices[i] for i in poly.reflex_indices]
    for i in range(len(refl)):
        for j in range(i + 1, len(refl)):
            a, b = refl[i], refl[j]
            if a.x == b.x or a.y == b.y:
                if _open_segment_interior(poly, a, b):
                    raise GeneralPositionViolated(
                        f"cut connects reflex vertices {a} and {b}", pair=(a, b)
                    )


def _open_segment_interior(poly: RectPolygon, a: Point, b: Point) -> bool:
    """True iff the open axis-parallel segment (a, b) lies strictly inside."""
    if a == b:
        return False
    if a.x == b.x:
        lo, hi = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
        for e in poly.edges:
            if e.orientation == "V" and e.a.x == a.x:
                s1, s2 = e.span()
                if s1 < hi and lo < s2:  # overlaps open interval
                    return False
            elif e.orientation == "H":
                x1, x2 = e.span()
                if x1 <= a.x <= x2 and lo < e.a.y < hi:
                    return False
    else:
        lo, hi = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
        for e in poly.edges:
            if e.orientation == "H" and e.a.y == a.y:
                s1, s2 = e.span()
                if s1 < hi and lo < s2:
                    return False
            elif e.orientation == "V":
                y1, y2 = e.span()
                if y1 <= a.y <= y2 and lo < e.a.x < hi:
                    return False
    return poly.contains(midpoint(a, b)) == "in"


def validate_oracle(pts: List[Point]) -> RectPolygon:
    """validate()'s pairwise checks, in its order, on a ring of distinct
    vertices whose edges alternate between horizontal and vertical."""
    n = len(pts)
    orients = ["V" if pts[i].x == pts[(i + 1) % n].x else "H" for i in range(n)]
    _check_simple(pts, orients)
    a2 = Fraction(0)
    for i in range(n):
        a2 += pts[i].cross(pts[(i + 1) % n])
    poly = RectPolygon(pts[::-1] if a2 < 0 else pts, was_reversed=a2 < 0, _trusted=True)
    _check_general_position(poly)
    return poly
