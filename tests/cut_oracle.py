"""Independent oracle for cut counts and pockets: walk the chain, build the piece.

The boundary chain between two points is walked vertex by vertex, comparing
positions along the CCW boundary.  The reflex vertices on the P_minus side
of a cut are read off that chain, normal-cut classes come from
chords_on_line at each band midpoint, and a pocket's r, n, xy-monotonicity
and wrap flag are read off the pocket built as a RectPolygon from the chain.
The index ranges and prefix counts of rectbeacon.polygon and the pocket
summaries of rectbeacon.placement are checked against them.
"""

from fractions import Fraction

from rectbeacon.errors import NotAChord
from rectbeacon.polygon import (
    REFLEX,
    Chord,
    Cut,
    RectPolygon,
    _merge_ring,
    chords_on_line,
    materialize,
)


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


def reflex_points_below(poly, cut):
    """Reflex vertices strictly inside the P_minus side of the cut, in CCW order."""
    chord = materialize(poly, cut)
    a, b = chord.a, chord.b
    chain = chain_between(poly, a, b) if chord.axis == "H" else chain_between(poly, b, a)
    return [p for p in chain[1:-1] if poly.classes[poly.vertex_index(p)] == REFLEX]


def normal_cuts(poly, orientation):
    """(level, lo, hi, r_minus) of every normal-cut class, bands in increasing order."""
    levels = sorted({(p.y if orientation == "H" else p.x) for p in poly.vertices})
    out = []
    for k in range(len(levels) - 1):
        t = (levels[k] + levels[k + 1]) / 2
        for lo, hi in chords_on_line(poly, orientation, t):
            chord = Chord(orientation, t, lo, hi)
            cut = Cut(chord.a, orientation, _chord=chord)
            out.append((t, lo, hi, len(reflex_points_below(poly, cut))))
    return out


def pocket(poly, e_idx, v_idx):
    """The pocket of reflex edge e at endpoint v: of the two chains between
    the ends of the cut extending e through v, the one without e's other
    end, closed by the cut and built as a polygon."""
    e = poly.edges[e_idx]
    v = poly.vertices[v_idx]
    chord = materialize(poly, Cut(v_idx, e.orientation))
    ring = chain_between(poly, chord.a, chord.b)
    if (e.b if v == e.a else e.a) in ring:
        ring = chain_between(poly, chord.b, chord.a)
    return RectPolygon(_merge_ring(ring), _trusted=True)


def pocket_summary(poly, e_idx, v_idx):
    """(r, n, xy-monotone) of the pocket of edge e_idx at vertex v_idx, built."""
    pk = pocket(poly, e_idx, v_idx)
    return pk.r, pk.n, pk.is_xy_monotone()


def pocket_wraps(poly, e_idx, v_idx):
    """Does the built pocket reach strictly into e's interior half-plane?"""
    hp = poly.edges[e_idx].halfplane
    for w in pocket(poly, e_idx, v_idx).vertices:
        coord = w.x if hp.axis == "x" else w.y
        if (coord > hp.c) if hp.sense > 0 else (coord < hp.c):
            return True
    return False
