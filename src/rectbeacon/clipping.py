"""Half-plane clipping of rectilinear polygons, twice over.

Two deliberately independent implementations:

* clip_fast: one boundary walk that stitches kept arcs together along the
  clip line (near-linear; used by the kernel algorithm);
* clip_split: repeated chord splitting (simple and slow; used by the kernel
  oracle and as a cross-check in tests).

Both return regularized full-dimensional pieces: measure-zero slivers on the
clip line are dropped.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .errors import InternalCaseError
from .geometry import Point
from .polygon import Cut, RectPolygon, _merge_ring, chords_on_line, split
from .transforms import TRANSFORMS


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
        merged = _merge_ring(ring)
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


def clip_split(poly: RectPolygon, axis: str, c: Fraction, keep_low: bool) -> List[RectPolygon]:
    """Same contract as clip_fast, by repeated chord splitting."""
    line_axis = "H" if axis == "y" else "V"
    out: List[RectPolygon] = []
    work = [poly]
    guard = 0
    while work:
        guard += 1
        if guard > 4 * poly.n + 64:
            raise InternalCaseError("clip_split failed to converge")
        p = work.pop()
        coords = [(v.y if axis == "y" else v.x) for v in p.vertices]
        if (max(coords) <= c) if keep_low else (min(coords) >= c):
            out.append(p)
            continue
        if (min(coords) >= c) if keep_low else (max(coords) <= c):
            continue
        chords = chords_on_line(p, line_axis, c)
        if not chords:
            raise InternalCaseError("straddling piece with no chord on the line")
        minus, plus = split(p, Cut(chords[0].a, line_axis, _chord=chords[0]))
        work.append(minus)
        work.append(plus)
    return out
