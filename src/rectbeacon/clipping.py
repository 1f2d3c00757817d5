"""Half-plane clipping of rectilinear polygons, twice over.

* clip_fast: one walk along the chords of the clip line, which cut the
  polygon into pieces that each lie on one side of it; chord_sides names
  the side (O(n log n); used by the kernel algorithm);
* clip_split: repeated chord splitting (simple and slow; used by the kernel
  oracle and as a cross-check in tests).

Both take their chords from chords_on_line, their sides from chord_sides,
their rings from polygon._cut_rings and their pieces from _piece.  The
independent reference is tests/clip_oracle.py, which stitches the kept
arcs by its own rules and merges rings by Fraction turns.

Both return regularized full-dimensional pieces: boundary runs on the clip
line are no chords, so nothing of measure zero is ever cut off.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .errors import InternalCaseError
from .polygon import (
    RectPolygon,
    _cut_rings,
    _piece,
    chord_sides,
    chords_on_line,
    split,
)


def clip_fast(poly: RectPolygon, axis: str, c: Fraction, keep_low: bool) -> List[RectPolygon]:
    """Keep {axis_coord <= c} (keep_low) or {axis_coord >= c} of the polygon.

    axis is 'y' or 'x'.  The chords of the line cut poly into pieces that
    each lie on one side of it, one walk along all of them (_cut_rings); a
    piece is kept iff it leaves its chords at the ends where the kept side's
    walk of chord_sides leaves them.  Rings start at their first such end
    in boundary order.
    """
    chords = chords_on_line(poly, "H" if axis == "y" else "V", c)
    if not chords:
        coords = [(v.y if axis == "y" else v.x) for v in poly.vertices]
        return [poly] if (max(coords) <= c if keep_low else min(coords) >= c) else []
    # The kept side leaves every chord of the line at the same end.
    first = chord_sides(chords[0])[0 if keep_low else 1].first
    rings = _cut_rings(poly, chords, {(k, first) for k in range(len(chords))})
    return [_piece(ring) for ring in rings.values()]


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
        minus, plus = split(p, chords[0])
        work.append(minus)
        work.append(plus)
    return out
