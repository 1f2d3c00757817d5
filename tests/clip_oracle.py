"""Independent oracle for half-plane clipping: stitch the kept arcs.

The clip that rectbeacon.clipping.clip_fast made before it cut along the
chords of the clip line, kept unchanged.  One canonical case, keeping what
lies below a horizontal line, walks the boundary once, collects the arcs on
the kept side with its own rules for runs along the line, and joins them
along the chords; the three other half-planes mirror the polygon into that
case and map the pieces back.  clip_fast is checked against it.
"""

from fractions import Fraction
from typing import List, Optional

from rectbeacon.errors import InternalCaseError
from rectbeacon.geometry import Point
from rectbeacon.polygon import RectPolygon, chords_on_line
from rectbeacon.transforms import TRANSFORMS

from ring_oracle import merge_ring


def _clip_keep_below_fast(poly: RectPolygon, c: Fraction) -> List[RectPolygon]:
    """Pieces of poly with y <= c (regularized), by arc stitching."""
    ys = [v.y for v in poly.vertices]
    if max(ys) <= c:
        return [poly]
    if min(ys) >= c:
        return []
    n = poly.n
    start = next(i for i, v in enumerate(poly.vertices) if v.y < c)

    arcs: List[List[Point]] = []
    cur: Optional[List[Point]] = [poly.vertices[start]]
    for k in range(n):
        e = poly.edges[(start + k) % n]
        a, b = e.a, e.b
        if e.orientation == "H":
            if a.y == c:
                # On-line run; part of the kept boundary iff interior below.
                if e.direction == "W":
                    if cur is None:
                        cur = [a]
                    cur.append(b)
                else:
                    if cur is not None:
                        arcs.append(cur)
                        cur = None
            elif a.y < c:
                if cur is None:
                    raise InternalCaseError("walk lost below the line")
                cur.append(b)
            # else: fully above, skip
        else:
            ay, by = a.y, b.y
            if ay < c and by < c:
                cur.append(b)
            elif ay <= c and by <= c:
                # touches the line at one endpoint
                if ay == c and by < c:
                    if cur is None:
                        cur = [a]
                    cur.append(b)
                else:  # by == c, rising to the line from below
                    cur.append(b)
            elif ay < c < by:
                x = Point(a.x, c)
                cur.append(x)
                arcs.append(cur)
                cur = None
            elif by < c < ay:
                cur = [Point(a.x, c), b]
            elif ay == c and by > c:
                if cur is not None:
                    arcs.append(cur)
                    cur = None
            # descending onto the line (ay > c, by == c) resolves at the
            # following on-line horizontal run; nothing to do here.
    if cur is None:
        raise InternalCaseError("boundary walk ended off the kept side")
    if arcs:
        first = arcs.pop(0)
        if cur[-1] != first[0]:
            raise InternalCaseError("cyclic arc merge mismatch")
        cur.extend(first[1:])
    arcs.append(cur)

    chord_by_east = {}
    for chord in chords_on_line(poly, "H", c):
        chord_by_east[chord.hi] = chord.lo
    arc_by_start = {}
    for arc in arcs:
        if arc[0] in arc_by_start:
            raise InternalCaseError("two kept arcs share a start point")
        arc_by_start[arc[0]] = arc

    out: List[RectPolygon] = []
    used = set()
    for arc in arcs:
        key = id(arc)
        if key in used:
            continue
        ring: List[Point] = []
        a = arc
        while True:
            used.add(id(a))
            ring.extend(a if not ring else a[1:] if a[0] == ring[-1] else a)
            end = a[-1]
            if end == ring[0]:
                break
            if end.y != c or end.x not in chord_by_east:
                raise InternalCaseError(f"arc ends at {end} with no chord to follow")
            nxt_start = Point(chord_by_east[end.x], c)
            if nxt_start == ring[0]:
                break
            if nxt_start not in arc_by_start:
                raise InternalCaseError(f"no arc starts at {nxt_start}")
            a = arc_by_start[nxt_start]
        merged = merge_ring(ring)
        if len(merged) >= 4:
            out.append(RectPolygon(merged, _trusted=True))
    return out


def clip_fast(poly: RectPolygon, axis: str, c: Fraction, keep_low: bool) -> List[RectPolygon]:
    """Keep {axis_coord <= c} (keep_low) or {axis_coord >= c} of the polygon.

    axis is 'y' or 'x'.  Implemented on one canonical case via the dihedral
    transforms.
    """
    if axis == "y" and keep_low:
        return _clip_keep_below_fast(poly, c)
    if axis == "y":
        t = TRANSFORMS["mirror_y"]
        pieces = _clip_keep_below_fast(t.polygon(poly), -c)
        return [t.polygon(p) for p in pieces]
    if keep_low:
        t = TRANSFORMS["mirror_diag"]
        pieces = _clip_keep_below_fast(t.polygon(poly), c)
        return [t.polygon(p) for p in pieces]
    t = TRANSFORMS["mirror_diag"]
    t2 = TRANSFORMS["mirror_y"]
    q = t2.polygon(t.polygon(poly))
    pieces = _clip_keep_below_fast(q, -c)
    return [t.polygon(t2.polygon(p)) for p in pieces]
