"""Independent oracle for chords, cut counts and pockets: scan the line,
shoot the ray, walk the chain, build the piece.

The chords on a line come from one scan that toggles inside/outside at
every crossing and every boundary run on the line; a chord from a reflex
vertex or a boundary point ends at the first boundary_hits contact of the
ray leaving its anchor through the interior, and a chord from a reflex
vertex also at the first edge index row across that ray, walked outward
from the vertex.  The boundary chain between two points is walked vertex
by vertex, comparing positions along the CCW boundary located with
locate_boundary.  The reflex vertices on the P_minus side of a chord are
read off that chain, normal-cut classes come from the line scan at each
band midpoint, and a pocket's r, n, xy-monotonicity and wrap flag are read
off the pocket built as a RectPolygon from the chain between the ends of
the walked chord.  rectbeacon.polygon's
chords with their ends, its shot table, index ranges and prefix counts and
the pocket summaries of rectbeacon.placement are checked against them.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import List, Optional, Tuple

from rectbeacon.errors import NotAChord
from rectbeacon.geometry import Point
from rectbeacon.polygon import (
    _INWARD,
    REFLEX,
    Chord,
    RectPolygon,
    boundary_hits,
)

from ring_oracle import merge_ring

_UNIT = {"E": Point(1, 0), "N": Point(0, 1), "W": Point(-1, 0), "S": Point(0, -1)}


def chords_on_line(poly: RectPolygon, axis: str, level: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """Maximal closed intervals on the line whose interior is inside poly.

    axis 'H' means the horizontal line y=level; intervals are x-ranges.
    Boundary runs collinear with the line are never part of a chord.
    """
    crossings = []  # x positions where the boundary crosses transversally
    runs = []  # (x1, x2, toggles)
    n = poly.n
    for e in poly.edges:
        if axis == "H":
            if e.orientation == "V":
                y1, y2 = e.span()
                if y1 < level < y2:
                    crossings.append(e.a.x)
            elif e.a.y == level:
                x1, x2 = e.span()
                prev_e = poly.edges[(e.index - 1) % n]
                next_e = poly.edges[(e.index + 1) % n]
                above_prev = max(prev_e.a.y, prev_e.b.y) > level
                above_next = max(next_e.a.y, next_e.b.y) > level
                runs.append((x1, x2, above_prev != above_next))
        else:
            if e.orientation == "H":
                x1, x2 = e.span()
                if x1 < level < x2:
                    crossings.append(e.a.y)
            elif e.a.x == level:
                y1, y2 = e.span()
                prev_e = poly.edges[(e.index - 1) % n]
                next_e = poly.edges[(e.index + 1) % n]
                right_prev = max(prev_e.a.x, prev_e.b.x) > level
                right_next = max(next_e.a.x, next_e.b.x) > level
                runs.append((y1, y2, right_prev != right_next))
    events = [(x, "x", None) for x in crossings] + [(r[0], "run", r) for r in runs]
    events.sort(key=lambda t: (t[0], t[1]))
    chords: List[Tuple[Fraction, Fraction]] = []
    inside = False
    open_at: Optional[Fraction] = None
    pos = None
    for coord, kind, payload in events:
        if kind == "x":
            if inside:
                if open_at is not None and open_at < coord:
                    chords.append((open_at, coord))
                inside = False
                open_at = None
            else:
                inside = True
                open_at = coord
        else:
            x1, x2, toggles = payload
            if inside:
                if open_at is not None and open_at < x1:
                    chords.append((open_at, x1))
            inside = inside != toggles
            open_at = x2 if inside else None
    return chords


def ray_cut(poly, anchor, orientation):
    """(lo, hi, ends) of the cut from a reflex vertex index or a point inside
    a perpendicular edge to the first boundary contact of the ray that leaves
    it through the interior, or None when the ray meets no boundary; ends
    locates the cut's two ends, lo's first, with locate_boundary."""
    if isinstance(anchor, int):
        start = poly.vertices[anchor]
        e = next(e for e in (poly.edges[anchor - 1], poly.edges[anchor]) if e.orientation == orientation)
        d = _UNIT[e.direction]
        ray = d if e.b == start else Point(-d.x, -d.y)  # away from the edge along the line
    else:
        start = anchor
        ray = _INWARD[poly.edges[poly.locate_boundary(anchor)[0]].direction]
    hits = boundary_hits(poly, start, ray)
    if not hits:
        return None
    a, b = sorted((start, hits[0][1]), key=lambda p: (p.x, p.y))
    lo, hi = (a.x, b.x) if orientation == "H" else (a.y, b.y)
    return lo, hi, (poly.locate_boundary(a), poly.locate_boundary(b))


def vertex_chord(poly: RectPolygon, i: int, o: str) -> Optional[Chord]:
    """The chord of orientation o from reflex vertex i, or None when its ray
    meets no boundary.  The ray leaves i away from its incident edge of
    orientation o, and its first contact is the far end: the first edge
    across the ray whose closed span holds the ray's line, in the edge index
    rows of the other orientation walked outward from i."""
    e = poly.edges[i - 1]
    forward = e.direction in "EN" if e.orientation == o else poly.edges[i].direction in "WS"
    d, index = poly.edge_index()
    levels, rows = index["V" if o == "H" else "H"]
    p = poly.vertices[i]
    level, start = (p.y, p.x) if o == "H" else (p.x, p.y)
    line, at = (c.numerator * (d // c.denominator) for c in (level, start))
    if forward:
        walk = range(bisect_right(levels, at), len(rows))
    else:
        walk = range(bisect_left(levels, at) - 1, -1, -1)
    for j in walk:
        _, lo, hi, vlo, vhi, k = rows[j]
        if lo <= line <= hi:
            break
    else:
        return None
    here, there = (i, True), ((vlo, True) if line == lo else (vhi, True) if line == hi else (k, False))
    far = poly.edges[k].level
    return Chord(o, level, start, far, (here, there)) if forward else Chord(o, level, far, start, (there, here))


def aligned_pair(poly):
    """The pair of reflex vertices that validate reports as violating general
    position, or None: of the walked chords through reflex vertices that end
    at a vertex, the least (i, j) in vertex order, as points."""
    pairs = []
    for i in poly.reflex_indices:
        for o in "HV":
            (a, a_vertex), (b, b_vertex) = vertex_chord(poly, i, o).ends
            if a_vertex and b_vertex:
                pairs.append((min(a, b), max(a, b)))
    return tuple(poly.vertices[k] for k in min(pairs)) if pairs else None


def _boundary_key(poly, p):
    """Sortable position of a boundary point along the CCW walk."""
    loc = poly.locate_boundary(p)
    if loc is None:
        raise NotAChord(f"{p} is not on the boundary")
    i, at_vertex = loc
    if at_vertex:
        return (i, Fraction(0))
    e = poly.edges[i]
    d = e.b - e.a
    num = (p.x - e.a.x) if d.x != 0 else (p.y - e.a.y)
    den = d.x if d.x != 0 else d.y
    return (i, num / den)


def _cyclic_between(ka, k, kb):
    """True iff position k lies strictly after ka and strictly before kb (cyclic)."""
    if ka < kb:
        return ka < k < kb
    return k > ka or k < kb


def chain_between(poly, a, b):
    """Boundary points from a to b walking CCW: [a, intermediate vertices..., b]."""
    ka = _boundary_key(poly, a)
    kb = _boundary_key(poly, b)
    if ka == kb:
        raise NotAChord("chain endpoints coincide on the boundary")
    out = [a]
    j = (ka[0] + 1) % poly.n
    for _ in range(poly.n):
        kj = (j, Fraction(0))
        if kj == kb or not _cyclic_between(ka, kj, kb):
            break
        out.append(poly.vertices[j])
        j = (j + 1) % poly.n
    out.append(b)
    return out


def split_rings(poly, chord):
    """(P_minus ring, P_plus ring) of a chord: the chains between its ends."""
    a, b = chord.a, chord.b
    if chord.axis == "H":
        return chain_between(poly, a, b), chain_between(poly, b, a)
    return chain_between(poly, b, a), chain_between(poly, a, b)


def reflex_points_below(poly, chord):
    """Reflex vertices strictly inside the P_minus side of a chord, in CCW order."""
    chain = split_rings(poly, chord)[0]
    return [p for p in chain[1:-1] if poly.classes[poly.vertex_index(p)] == REFLEX]


def normal_cuts(poly, orientation):
    """(level, lo, hi, r_minus) of every normal-cut class, bands in increasing order."""
    levels = sorted({(p.y if orientation == "H" else p.x) for p in poly.vertices})
    out = []
    for k in range(len(levels) - 1):
        t = (levels[k] + levels[k + 1]) / 2
        for lo, hi in chords_on_line(poly, orientation, t):
            chord = Chord(orientation, t, lo, hi, None)  # the chain walk locates its ends
            out.append((t, lo, hi, len(reflex_points_below(poly, chord))))
    return out


def pocket(poly, e_idx, v_idx):
    """The pocket of reflex edge e at endpoint v: of the two chains between
    the ends of the walked chord extending e through v, the one without e's
    other end, closed by the chord and built as a polygon."""
    e = poly.edges[e_idx]
    v = poly.vertices[v_idx]
    chord = vertex_chord(poly, v_idx, e.orientation)
    ring = chain_between(poly, chord.a, chord.b)
    if (e.b if v == e.a else e.a) in ring:
        ring = chain_between(poly, chord.b, chord.a)
    return RectPolygon(merge_ring(ring), _trusted=True)


def pocket_summary(poly, e_idx, v_idx):
    """(r, n, xy-monotone) of the pocket of edge e_idx at vertex v_idx, built."""
    pk = pocket(poly, e_idx, v_idx)
    return pk.r, pk.n, pk.is_xy_monotone()


def pocket_wraps(poly, e_idx, v_idx):
    """Does the built pocket reach strictly into e's interior half-plane?"""
    e = poly.edges[e_idx]
    for w in pocket(poly, e_idx, v_idx).vertices:
        coord = w.y if e.orientation == "H" else w.x
        if (coord > e.level) if e.sense > 0 else (coord < e.level):
            return True
    return False
