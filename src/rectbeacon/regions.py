"""Rectilinear region helpers: slab decomposition, canonical form, equality."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .polygon import RectPolygon, chords_on_line

Box = Tuple[Fraction, Fraction, Fraction, Fraction]  # x1, y1, x2, y2


def slab_rects(poly: RectPolygon) -> List[Box]:
    """Disjoint-interior closed boxes covering the polygon (vertical slabs)."""
    xs = sorted({v.x for v in poly.vertices})
    out: List[Box] = []
    for k in range(len(xs) - 1):
        x1, x2 = xs[k], xs[k + 1]
        mid = (x1 + x2) / 2
        for chord in chords_on_line(poly, "V", mid):
            out.append((x1, chord.lo, x2, chord.hi))
    return out


def _merge_intervals(ivs: List[Tuple[Fraction, Fraction]]) -> Tuple[Tuple[Fraction, Fraction], ...]:
    ivs = sorted(ivs)
    merged: List[Tuple[Fraction, Fraction]] = []
    for lo, hi in ivs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def canonical_form(boxes: Iterable[Box]):
    """Canonical column decomposition of a union of closed boxes.

    Two unions describe the same (regular closed) point set iff their
    canonical forms are equal.
    """
    boxes = [b for b in boxes if b[0] < b[2] and b[1] < b[3]]
    if not boxes:
        return ()
    xs = sorted({b[0] for b in boxes} | {b[2] for b in boxes})
    cols = []
    for k in range(len(xs) - 1):
        x1, x2 = xs[k], xs[k + 1]
        ivs = [(b[1], b[3]) for b in boxes if b[0] <= x1 and b[2] >= x2]
        merged = _merge_intervals(ivs)
        if merged:
            cols.append([x1, x2, merged])
    # Fuse columns with identical interval structure.
    fused = []
    for col in cols:
        if fused and fused[-1][2] == col[2] and fused[-1][1] == col[0]:
            fused[-1][1] = col[1]
        else:
            fused.append(col)
    return tuple((c[0], c[1], c[2]) for c in fused)


def region_boxes(pieces: Sequence[RectPolygon]) -> List[Box]:
    out: List[Box] = []
    for p in pieces:
        out.extend(slab_rects(p))
    return out


def regions_equal(pieces_a: Sequence[RectPolygon], pieces_b: Sequence[RectPolygon]) -> bool:
    """Exact point-set equality of two rectilinear regions (regular parts)."""
    return canonical_form(region_boxes(pieces_a)) == canonical_form(region_boxes(pieces_b))


def region_area(pieces: Sequence[RectPolygon]) -> Fraction:
    return sum((p.area() for p in pieces), Fraction(0))


def _net_segments(groups):
    """Cancel opposite directed collinear segments; returns survivors.

    groups: dict level -> list of (lo, hi, sign); sign +1/-1 encodes the two
    travel directions.  Interiors are disjoint so net coverage is in
    {-1, 0, +1} everywhere.
    """
    out = []
    for level, items in groups.items():
        events = []
        for lo, hi, sign in items:
            events.append((lo, sign))
            events.append((hi, -sign))
        events.sort()
        net = 0
        start = None
        prev_net = 0
        for coord, delta in events:
            if start is not None and coord > start and prev_net != 0:
                out.append((level, start, coord, prev_net))
            net += delta
            start = coord
            prev_net = net
    return out


def union_to_polygons(boxes: Iterable[Box]) -> List[RectPolygon]:
    """Trace the boundary of a union of closed boxes into polygons."""
    from .errors import InternalCaseError
    from .geometry import Point
    from .polygon import RectPolygon, _merge_ring

    cols = canonical_form(boxes)
    v_groups: dict = {}
    h_groups: dict = {}
    for x1, x2, ivs in cols:
        for y1, y2 in ivs:
            h_groups.setdefault(y1, []).append((x1, x2, +1))   # bottom: east
            h_groups.setdefault(y2, []).append((x1, x2, -1))   # top: west
            v_groups.setdefault(x2, []).append((y1, y2, +1))   # right: north
            v_groups.setdefault(x1, []).append((y1, y2, -1))   # left: south
    segments = []
    for y, lo, hi, sign in _net_segments(h_groups):
        a, b = Point(lo, y), Point(hi, y)
        segments.append((a, b) if sign > 0 else (b, a))
    for x, lo, hi, sign in _net_segments(v_groups):
        a, b = Point(x, lo), Point(x, hi)
        segments.append((a, b) if sign > 0 else (b, a))
    by_start: dict = {}
    for a, b in segments:
        by_start.setdefault(a, []).append(b)
    out: List[RectPolygon] = []
    used = set()
    for a, b in segments:
        if (a, b) in used:
            continue
        ring = [a]
        cur = (a, b)
        for _ in range(len(segments) + 1):
            used.add(cur)
            ring.append(cur[1])
            if cur[1] == ring[0]:
                break
            nexts = [q for q in by_start.get(cur[1], []) if (cur[1], q) not in used]
            if len(nexts) != 1:
                raise InternalCaseError(
                    f"union boundary is pinched or open at {cur[1]}"
                )
            cur = (cur[1], nexts[0])
        else:
            raise InternalCaseError("union boundary failed to close")
        merged, ints = _merge_ring(ring)
        if len(merged) >= 4:
            out.append(RectPolygon(merged, _trusted=True, _ints=ints))
    return out


def consolidate(pieces: Sequence[RectPolygon]) -> List[RectPolygon]:
    """Merge abutting pieces into maximal polygons."""
    if len(pieces) <= 1:
        return list(pieces)
    return union_to_polygons(region_boxes(pieces))
