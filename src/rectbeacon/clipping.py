"""Half-plane clipping of rectilinear polygons, twice over.

Two deliberately independent implementations:

* clip_fast: one walk along the chords of the clip line, which cut the
  polygon into pieces that each lie on one side of it; chord_sides names
  the side (O(n log n); used by the kernel algorithm);
* clip_split: repeated chord splitting (simple and slow; used by the kernel
  oracle and as a cross-check in tests).

Both return regularized full-dimensional pieces: boundary runs on the clip
line are no chords, so nothing of measure zero is ever cut off.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .errors import InternalCaseError
from .geometry import Point
from .polygon import (
    Cut,
    RectPolygon,
    _chain,
    _piece,
    chord_sides,
    chords_on_line,
    split,
    walk_range,
)


def clip_fast(poly: RectPolygon, axis: str, c: Fraction, keep_low: bool) -> List[RectPolygon]:
    """Keep {axis_coord <= c} (keep_low) or {axis_coord >= c} of the polygon.

    axis is 'y' or 'x'.  The chords of the line cut poly into pieces that
    each lie on one side of it.  A piece's boundary runs from a chord end
    along the polygon boundary to the next chord end, crosses that end's
    chord, and so on until it closes; it is kept iff it leaves its chords at
    the ends where the kept side's walk of chord_sides leaves them.
    """
    chords = chords_on_line(poly, "H" if axis == "y" else "V", c)
    if not chords:
        coords = [(v.y if axis == "y" else v.x) for v in poly.vertices]
        return [poly] if (max(coords) <= c if keep_low else min(coords) >= c) else []
    side = 0 if keep_low else 1
    # Every chord end (chord, 0 for a / 1 for b) in boundary order: a vertex
    # before the interior of the edge that starts there.
    located = sorted(((i, not vertex), k, e)
                     for k, ch in enumerate(chords) for e, (i, vertex) in enumerate(ch.ends))
    ends = [(k, e) for _, k, e in located]
    following = {end: ends[(m + 1) % len(ends)] for m, end in enumerate(ends)}
    out: List[RectPolygon] = []
    seen = set()
    for start in ends:
        k, e = start
        if start in seen or chord_sides(chords[k])[side].first != e:
            continue
        ring: List[Point] = []
        end = start
        while True:
            if end in seen:
                raise InternalCaseError(f"clip walk on {axis}={c} revisits a chord end")
            seen.add(end)
            (k, e), (k2, e2) = end, following[end]
            s, t = walk_range(chords[k].ends[e], chords[k2].ends[e2])
            ring.append((chords[k].a, chords[k].b)[e])
            ring.extend(poly.vertices[v] for v in _chain(poly, s, t))
            ring.append((chords[k2].a, chords[k2].b)[e2])
            end = (k2, 1 - e2)
            if end == start:
                break
        out.append(_piece(ring))
    return out


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
