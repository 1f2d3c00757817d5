"""Chords, the shot table, prefix counts, chord sides, pocket summaries,
point location, boundary contacts, clips, vertex classes, merged rings and
transformed polygons against the line-scan, ray, row-walk, chain-walk,
build, two-pass, edge-scan, arc-stitching, Fraction-turn and fresh-scaling
oracles."""

from fractions import Fraction

import pytest

from rectbeacon.clipping import clip_fast
from rectbeacon.errors import GeneralPositionViolated, InternalCaseError, NotAChord, NotRectilinear
from rectbeacon.generators import comb, coverage_spiral, random_rectilinear, uniform_spiral
from rectbeacon.geometry import Point, midpoint
from rectbeacon.placement import (
    _FRAMES,
    _first_reflex,
    _pocket_rows,
    _pocket_wraps,
    _reflex_points,
    _three_pieces,
    pocket_summary,
)
from rectbeacon.polygon import (
    REFLEX,
    Chord,
    RectPolygon,
    _assert_chord,
    _cut_rings,
    _merge_ring,
    boundary_hits,
    chord_beside,
    chord_sides,
    chords_on_line,
    count_reflex_below,
    iter_normal_cuts,
    pocket,
    pocket_side,
    split,
    validate,
    vertex_chord,
)
from rectbeacon.transforms import TRANSFORMS

import clip_oracle
import cut_oracle
import location_oracle
import ring_oracle
import shapes
from segment_oracle import boundary_hits_scan


def _corpus():
    """Fuzz polygons, coverage and uniform spirals and combs, each also mirrored."""
    polys = [random_rectilinear(n, seed) for n in range(8, 90, 8) for seed in range(3)]
    polys += [coverage_spiral(r)[0] for r in range(1, 19)]
    polys += [uniform_spiral(r)[0] for r in range(1, 19)]
    polys += [comb(k) for k in range(1, 16)]
    return polys + [TRANSFORMS["mirror_x"].polygon(p) for p in polys]


CORPUS = _corpus()


def _mapped(p):
    """p under (x, y) -> (2/3 x + 1/7, 5/4 y - 1/3), which turns integer
    coordinates into ones with the common denominator 84 (or 42), and
    multiplies the spirals' denominators, up to 3872, by up to 42."""
    return RectPolygon([Point(Fraction(2, 3) * v.x + Fraction(1, 7), Fraction(5, 4) * v.y - Fraction(1, 3))
                        for v in p.vertices], _trusted=True)


MAPPED = [_mapped(p) for p in CORPUS]


def _flat_comb(k):
    """Base [0, 4k-2] x [0, 11] with k fingers of width 2 and every gap
    floored at y = 13: each floor's chord runs through the next finger to
    the next floor's reflex corner, so general position fails."""
    ring = [(0, 0), (4 * k - 2, 0)]
    for i in range(k - 1, -1, -1):
        ring += [(4 * i + 2, 2 * k + 11), (4 * i, 2 * k + 11)] + ([(4 * i, 13), (4 * i - 2, 13)] if i else [])
    return validate(ring, check_general_position=False)


def _aligned():
    """Polygons whose reflex vertices see each other along a cut, also
    mirrored and mapped."""
    polys = [validate(ring, check_general_position=False)
             for ring in (shapes.W_SHAPE, shapes.W_SHAPE_VERTICAL)]
    polys += [_flat_comb(k) for k in range(2, 13)]
    polys += [TRANSFORMS["mirror_x"].polygon(p) for p in polys]
    return polys + [_mapped(p) for p in polys]


def _split_pieces(p):
    """Both pieces of the split along the middle normal-cut class of each orientation."""
    pieces = []
    for o in "HV":
        classes = list(iter_normal_cuts(p, o))
        if classes:
            pieces += split(p, classes[len(classes) // 2][0])
    return pieces


def _lines(p, o):
    """Every vertex level of one orientation, every band midpoint and one
    level beyond the bounding box on each side."""
    levels = sorted({(v.y if o == "H" else v.x) for v in p.vertices})
    mids = [(s + t) / 2 for s, t in zip(levels, levels[1:])]
    return levels + mids + [levels[0] - 1, levels[-1] + 1]


def test_chords_on_line_matches_line_scan_and_locates_ends():
    lines = 0
    for p in CORPUS:
        for o in "HV":
            for t in _lines(p, o):
                got = chords_on_line(p, o, t)
                assert [(c.lo, c.hi) for c in got] == cut_oracle.chords_on_line(p, o, t), (p.vertices, o, t)
                for c in got:
                    assert (c.axis, c.level) == (o, t)
                    assert c.ends == (p.locate_boundary(c.a), p.locate_boundary(c.b)), (p.vertices, o, t)
                lines += 1
    assert lines >= 10000


def test_chords_at_edge_midpoints_match_first_ray_contact():
    """The chord across an edge's midpoint that ends there, one of the
    chords on the line through it, ends where the ray leaving the midpoint
    through the interior first meets the boundary, ends included."""
    edge_cuts = 0
    for p in CORPUS:
        for e in p.edges:
            m = midpoint(e.a, e.b)
            across = "V" if e.orientation == "H" else "H"
            level, along = (m.y, m.x) if across == "H" else (m.x, m.y)
            chord, = [c for c in chords_on_line(p, across, level) if along in (c.lo, c.hi)]
            assert (chord.lo, chord.hi, chord.ends) == cut_oracle.ray_cut(p, m, across), (p.vertices, e.index)
            edge_cuts += 1
    assert edge_cuts >= 5000


def test_vertex_chords_match_ray_cut():
    """Every row of the shot table, in both orientations, against the walk
    over the edge index rows and the first contact of the ray extending the
    vertex's edge, ends included; the rows of convex vertices are empty.
    On the corpus, its mapped copies, the pieces of its splits and polygons
    whose reflex vertices see each other along a cut."""
    pieces = [q for p in CORPUS for q in _split_pieces(p)]
    cuts = vertex_ends = 0
    for p in CORPUS + MAPPED + pieces + _aligned():
        for o in "HV":
            rows = p.shots(o)
            assert [i for i, row in enumerate(rows) if row is not None] == list(p.reflex_indices)
            for i in p.reflex_indices:
                walked = cut_oracle.vertex_chord(p, i, o)
                forward = walked.ends[0] == (i, True)
                assert rows[i] == (forward, walked.hi if forward else walked.lo, walked.ends[forward]), \
                    (p.vertices, i, o)
                chord = vertex_chord(p, i, o)
                assert (chord.lo, chord.hi, chord.ends) == (walked.lo, walked.hi, walked.ends) \
                    == cut_oracle.ray_cut(p, i, o), (p.vertices, i, o)
                cuts += 1
                vertex_ends += chord.ends[0][1] and chord.ends[1][1]
    assert cuts >= 20000 and vertex_ends >= 400


def test_general_position_pair_matches_walked_chords():
    """validate's first violating pair, vertex order included, is the one the
    walked extension chords give, on the polygons whose reflex vertices see
    each other along a cut (and the two-finger flat combs, whose do not)."""
    violations = 0
    for p in _aligned():
        try:
            validate(p.vertices)
            pair = None
        except GeneralPositionViolated as exc:
            pair = exc.pair
            violations += 1
        assert pair == cut_oracle.aligned_pair(p), p.vertices
    assert violations >= 48


def _passes_chord_check(p, chord):
    try:
        _assert_chord(p, chord)
    except NotAChord:
        return False
    return True


def test_integer_chord_check_matches_fraction_midpoint():
    """_assert_chord, which locates the chord's midpoint on the ints, passes
    exactly the chords whose Fraction midpoint contains() puts inside: every
    normal-cut chord of the corpus, whose level has denominator 2D, the
    segment between neighbouring chords of a band, across the exterior, and
    the segment from a band's first chord to its last."""
    segments = 0
    for p in CORPUS:
        for o in "HV":
            bands = {}
            for chord, _ in iter_normal_cuts(p, o):
                bands.setdefault(chord.level, []).append(chord)
            for level, chords in bands.items():
                between = [Chord(o, level, c.hi, c2.lo, None) for c, c2 in zip(chords, chords[1:])]
                span = [Chord(o, level, chords[0].lo, chords[-1].hi, None)] if between else []
                for chord in chords + between + span:
                    inside = p.contains(midpoint(chord.a, chord.b)) == "in"
                    assert _passes_chord_check(p, chord) == inside, (p.vertices, chord)
                    segments += 1
    assert segments >= 15000


def test_integer_chord_check_rejects_boundary_and_notch():
    """A segment along a boundary edge and one across the notch of the U
    shape are no chords."""
    u = shapes.u_shape()
    with pytest.raises(NotAChord):
        _assert_chord(u, Chord("H", Fraction(2), Fraction(2), Fraction(4), None))
    with pytest.raises(NotAChord):
        _assert_chord(u, Chord("H", Fraction(3), Fraction(0), Fraction(6), None))
    for p in CORPUS[:40] + MAPPED[:40]:
        for e in p.edges:
            with pytest.raises(NotAChord):
                _assert_chord(p, Chord(e.orientation, e.level, *e.span(), None))


def _split_rings(p, chord):
    """_cut_rings' unmerged rings, with their ints, of the minus and the
    plus side of a chord."""
    starts = [(0, side.first) for side in chord_sides(chord)]
    rings = _cut_rings(p, [chord], starts)
    return [rings[start] for start in starts]


def test_normal_cut_classes_match_chain_walk():
    classes = 0
    for p in CORPUS:
        for o in ("H", "V"):
            got = list(iter_normal_cuts(p, o))
            assert [(chord.level, chord.lo, chord.hi, r_minus) for chord, r_minus in got] \
                == cut_oracle.normal_cuts(p, o), (p.vertices, o)
            for chord, _ in got:
                assert chord.axis == o
                assert chord.ends == (p.locate_boundary(chord.a), p.locate_boundary(chord.b))
                assert tuple(ring.points for ring in _split_rings(p, chord)) == cut_oracle.split_rings(p, chord)
            classes += len(got)
    assert classes >= 10000


def _vertex_chords(p):
    """(i, o, side, chord) for every chord through a reflex vertex i (side
    None) or just beside it (side -1 or +1, the sense chord_beside takes)."""
    for i in p.reflex_indices:
        for o, side in [(o, side) for o in "HV" for side in (None, -1, 1)]:
            try:
                yield i, o, side, vertex_chord(p, i, o) if side is None else chord_beside(p, i, o, side)
            except NotAChord:
                continue


def test_chords_beside_vertices_lie_midway_to_the_next_level():
    """chord_beside's chord lies on the line midway between the vertex's
    level and the nearest distinct vertex level on its side, taken from the
    sorted Fraction coordinates, and spans the line scan's interval that
    holds the vertex's coordinate along it.  At every vertex, both
    orientations and both senses: NotAChord exactly when no vertex level
    lies on that side or no such interval exists, which at a reflex vertex
    never happens."""
    chords = missing = 0
    for p in CORPUS:
        for o in "HV":
            levels = sorted({(v.y if o == "H" else v.x) for v in p.vertices})
            scans = {}
            for i, v in enumerate(p.vertices):
                level, along = (v.y, v.x) if o == "H" else (v.x, v.y)
                for sense in (-1, 1):
                    beyond = [t for t in levels if sense * (t - level) > 0]
                    want = []
                    if beyond:
                        t = (level + min(beyond, key=lambda u: sense * u)) / 2
                        if t not in scans:
                            scans[t] = cut_oracle.chords_on_line(p, o, t)
                        want = [(lo, hi) for lo, hi in scans[t] if lo <= along <= hi]
                    if not want:
                        assert p.classes[i] != REFLEX, (p.vertices, i, o, sense)
                        with pytest.raises(NotAChord):
                            chord_beside(p, i, o, sense)
                        missing += 1
                        continue
                    chord = chord_beside(p, i, o, sense)
                    assert (chord.axis, chord.level, [(chord.lo, chord.hi)]) == (o, t, want), \
                        (p.vertices, i, o, sense)
                    chords += 1
    assert chords >= 15000 and missing >= 5000


def test_reflex_below_at_vertex_cuts_matches_chain_walk():
    """Cuts through a reflex vertex end there, symbolic ones inside two edges."""
    cuts = 0
    for p in CORPUS:
        for i, o, side, chord in _vertex_chords(p):
            want = cut_oracle.reflex_points_below(p, chord)
            assert _reflex_points(p, chord_sides(chord)[0]) == want, (p.vertices, i, o, side)
            assert count_reflex_below(p, chord) == len(want), (p.vertices, i, o, side)
            cuts += 1
    assert cuts >= 10000


def test_pocket_summaries_match_built_pockets():
    pockets = 0
    for p in CORPUS:
        for e in p.reflex_edges():
            for v in (e.a, e.b):
                vi = p.vertex_index(v)
                s = pocket_summary(p, e.index, vi)
                assert (s.r, s.n, s.monotone) == cut_oracle.pocket_summary(p, e.index, vi)
                assert pocket(p, e.index, vi) == cut_oracle.pocket(p, e.index, vi)
                assert _pocket_wraps(p, e.index, s) == cut_oracle.pocket_wraps(p, e.index, vi)
                pockets += 1
    assert pockets >= 2000


def _two_splits(p, e, vi, vpi):
    """(A, B, C) by two single splits: the pocket at v off p, then the
    pocket at v' off the rest, at v' located on the rest."""
    chord, side = pocket_side(p, e.index, vi)
    is_minus = side == chord_sides(chord)[0]
    minus, plus = split(p, chord)
    a, rest = (minus, plus) if is_minus else (plus, minus)
    where = rest.locate_boundary(p.vertices[vpi])
    assert where is not None and where[1], (p.vertices, e.index, vi)
    minus, plus = split(rest, vertex_chord(rest, where[0], e.orientation))
    c, b = (minus, plus) if is_minus else (plus, minus)
    return a, b, c


def test_three_pieces_are_both_pockets_and_the_middle():
    """_three_pieces cuts both pockets of a reflex edge off: A and C have
    the r and n of their summaries, the areas add up exactly, e lies on B's
    boundary, and each far end is a corner of both pieces its chord bounds.
    One walk along both chords builds the same three polygons, vertex for
    vertex, as a split at v followed by a split of the rest at v'."""
    splits = 0
    for p in CORPUS:
        rows = _pocket_rows(p)
        for e in p.reflex_edges():
            for vi, vpi in ((e.index, (e.index + 1) % p.n), ((e.index + 1) % p.n, e.index)):
                (a, _), (b, _), (c, _), far_v, far_vp = _three_pieces(p, rows, e.index, vi)
                assert [x.vertices for x in (a, b, c)] == [x.vertices for x in _two_splits(p, e, vi, vpi)], \
                    (p.vertices, e.index, vi)
                sa, sc = pocket_summary(p, e.index, vi), pocket_summary(p, e.index, vpi)
                assert (a.r, a.n) == (sa.r, sa.n), (p.vertices, e.index, vi)
                assert (c.r, c.n) == (sc.r, sc.n), (p.vertices, e.index, vpi)
                assert a.area() + b.area() + c.area() == p.area(), (p.vertices, e.index, vi)
                assert b.contains(midpoint(e.a, e.b)) == "on", (p.vertices, e.index, vi)
                for piece, end in ((a, far_v), (b, far_v), (b, far_vp), (c, far_vp)):
                    assert piece.vertex_index(end) is not None, (p.vertices, e.index, vi)
                splits += 1
    assert splits >= 2000


def _frame_key(q, o, s):
    """(level, along) of q across orientation o, both read with sense s."""
    level, along = (q.y, q.x) if o == "H" else (q.x, q.y)
    return (level, along) if s > 0 else (-level, -along)


def test_frame_sides_at_vertex_cuts_match_chain_walk():
    """The reflex counts on both sides of a cut and the first reflex vertex
    below and above it, read in a frame of the no-safe-cut cases, against
    the oracle's chains: in frame id and in rot180, which reverses the
    senses both across and along the cut."""
    cuts = 0
    for p in CORPUS:
        for i, o, side, chord in _vertex_chords(p):
            chains = cut_oracle.split_rings(p, chord)
            sides = [[q for q in chain[1:-1] if p.classes[p.vertex_index(q)] == REFLEX] for chain in chains]
            for f, s in ((_FRAMES[0], 1), (_FRAMES[2], -1)):
                reflex = sides[::s]
                assert f.reflex(p, chord) == tuple(map(len, reflex)), (p.vertices, i, o, side, f.name)
                level = chord.level if s > 0 else -chord.level
                below, above = ([(_frame_key(q, o, s), q) for q in chain] for chain in reflex)
                below = [((k[0], -k[1]), q) for k, q in below if k[0] < level]
                above = [(k, q) for k, q in above if k[0] > level]
                want = (max(below, key=lambda kq: kq[0])[1] if below else None,
                        min(above, key=lambda kq: kq[0])[1] if above else None)
                for above_cut in (False, True):
                    try:
                        got = _first_reflex(p, chord, f, above_cut)
                    except InternalCaseError:
                        got = None
                    assert got == want[above_cut], (p.vertices, i, o, side, f.name, above_cut)
            cuts += 1
    assert cuts >= 10000


def test_pocket_side_matches_chain_walk():
    """The Side pocket_side names, one of chord_sides' two, is the oracle's
    pocket, vertex order included, and the other side is not."""
    ends = 0
    for p in CORPUS:
        for e in p.reflex_edges():
            for v in (e.a, e.b):
                vi = p.vertex_index(v)
                chord, side = pocket_side(p, e.index, vi)
                k = chord_sides(chord).index(side)
                want = list(cut_oracle.pocket(p, e.index, vi).vertices)
                pocket_ring, other_ring = cut_oracle.split_rings(p, chord)[::1 - 2 * k]
                assert _merge_ring(pocket_ring)[0] == want, (p.vertices, e.index, vi)
                assert _merge_ring(other_ring)[0] != want, (p.vertices, e.index, vi)
                ends += 1
    assert ends >= 2000


def test_point_location_matches_two_pass_oracle():
    """contains and locate_boundary at every vertex, every edge midpoint, a
    third of a unit from every vertex towards +x and towards +y and on a
    9 x 9 grid over the bounding box widened by one, on the corpus and on
    its mapped copies."""
    third = Fraction(1, 3)
    points = 0
    for p in CORPUS + MAPPED:
        xmin, ymin, xmax, ymax = p.bbox()
        probes = list(p.vertices) + [midpoint(e.a, e.b) for e in p.edges]
        probes += [Point(v.x + dx, v.y + dy) for v in p.vertices
                   for dx, dy in ((third, 0), (0, third))]
        probes += [Point(xmin - 1 + (xmax - xmin + 2) * Fraction(i, 8),
                         ymin - 1 + (ymax - ymin + 2) * Fraction(j, 8))
                   for i in range(9) for j in range(9)]
        for q in probes:
            assert p.contains(q) == location_oracle.contains(p, q), (p.vertices, q)
            assert p.locate_boundary(q) == location_oracle.locate_boundary(p, q), (p.vertices, q)
        points += len(probes)
    assert points >= 60000


def test_boundary_hits_matches_edge_scan():
    """Vertex to vertex, edge midpoint to reflex vertex and back and the
    four axis rays from every edge midpoint, on the corpus and on its mapped
    copies.  Only polygons with n <= 24 are queried, to keep the test short."""
    axes = (Point(1, 0), Point(-1, 0), Point(0, 1), Point(0, -1))
    queries = 0
    for p in [p for p in CORPUS + MAPPED if p.n <= 24]:
        mids = [midpoint(e.a, e.b) for e in p.edges]
        segments = [(z, b) for z in p.vertices for b in p.vertices if z != b]
        for i in p.reflex_indices:
            segments += [(z, p.vertices[i]) for z in mids] + [(p.vertices[i], z) for z in mids]
        for z, b in segments:
            assert boundary_hits(p, z, b - z, 1) == boundary_hits_scan(p, z, b - z, 1), (p.vertices, z, b)
        for z in mids:
            for d in axes:
                assert boundary_hits(p, z, d) == boundary_hits_scan(p, z, d), (p.vertices, z, d)
        queries += len(segments) + 4 * len(mids)
    assert queries >= 70000


def _rings(pieces):
    """The pieces' vertex rings, each started at its least (x, y) vertex, sorted."""
    rings = []
    for piece in pieces:
        vs = list(piece.vertices)
        k = vs.index(min(vs, key=lambda v: (v.x, v.y)))
        rings.append([(v.x, v.y) for v in vs[k:] + vs[:k]])
    return sorted(rings)


def test_clip_matches_arc_stitching():
    """clip_fast keeps the same pieces as the arc-stitching clip on every
    line, on both sides, up to where a ring starts and the order of pieces.
    Only polygons with n <= 32 are clipped, to keep the test short."""
    clips = 0
    for p in CORPUS:
        if p.n > 32:
            continue
        for o, axis in (("H", "y"), ("V", "x")):
            for t in _lines(p, o):
                for keep_low in (True, False):
                    got = _rings(clip_fast(p, axis, t, keep_low))
                    assert got == _rings(clip_oracle.clip_fast(p, axis, t, keep_low)), \
                        (p.vertices, axis, t, keep_low)
                    clips += 1
    assert clips >= 7000


def _padded(p):
    """p's ring with every vertex repeated, the midpoint of every edge and a
    spike back from each next vertex to that midpoint inserted, started
    inside an edge and closed by its first point again."""
    ring = []
    for a, b in zip(p.vertices, p.vertices[1:] + p.vertices[:1]):
        m = midpoint(a, b)
        ring += [a, a, m, b, m]
    ring = ring[2:] + ring[:2]
    return ring + ring[:1]


def test_classes_and_merged_rings_match_fraction_turns():
    """Vertex classes and merged rings, decided on integer-scaled
    coordinates, against the Fraction turns: on the mapped copies, on their
    rings padded with repeated, collinear and doubled-back points and on the
    unmerged rings of their splits."""
    rings = 0
    for p in MAPPED:
        assert list(p.classes) == ring_oracle.classes(p.vertices), p.vertices
        padded = _padded(p)
        assert _merge_ring(padded)[0] == ring_oracle.merge_ring(padded) == list(p.vertices[1:] + p.vertices[:1])
        for o in "HV":
            for chord, _ in list(iter_normal_cuts(p, o))[:3]:
                for ring, ints, _ in _split_rings(p, chord):
                    assert _merge_ring(ring)[0] == _merge_ring(ring, ints)[0] == ring_oracle.merge_ring(ring), \
                        (p.vertices, chord)
                    rings += 1
        rings += 1
    assert rings >= 1000


def _edge_table(p):
    return [(e.orientation, e.direction, e.kind, "y" if e.orientation == "H" else "x", e.level, e.sense)
            for e in p.edges]


def _index_rows(p):
    """p's edge index rows, coordinates divided by its D."""
    d, index = p.edge_index()
    return {o: [(Fraction(c, d), Fraction(lo, d), Fraction(hi, d), *ends) for c, lo, hi, *ends in rows]
            for o, (_, rows) in index.items()}


def test_edge_table_matches_fraction_rule():
    """Each edge's orientation, direction, kind and half-plane, decided on
    the integer coordinates, against the Fraction rule, and each piece's
    index, built on the ints of the ring it was cut from, against one built
    on a fresh scaling of its vertices: on the mapped copies and on the
    pieces their splits, pockets and clips along their reflex edges and
    middle bands make.  Split and pocket pieces keep their parent's D, or a
    multiple of it for the chord's ends, and some clip pieces drop every
    vertex with one of the ring's denominators, so their D can be a
    multiple of their least one."""
    pieces = coarser = 0
    for p in MAPPED:
        made = _split_pieces(p)
        made += [pocket(p, e.index, v) for e in p.reflex_edges() for v in (e.index, (e.index + 1) % p.n)]
        clips = [("y" if e.orientation == "H" else "x", e.level) for e in p.reflex_edges()]
        for o, axis in (("H", "y"), ("V", "x")):
            classes = list(iter_normal_cuts(p, o))
            clips.append((axis, classes[len(classes) // 2][0].level))
        for axis, c in clips:
            made += clip_fast(p, axis, c, True) + clip_fast(p, axis, c, False)
        for q in [p] + made:
            assert _edge_table(q) == ring_oracle.edges(q.vertices), q.vertices
        for q in made:
            fresh = RectPolygon(q.vertices, _trusted=True)
            assert _index_rows(q) == _index_rows(fresh), q.vertices
            coarser += q.edge_index()[0] != fresh.edge_index()[0]
        pieces += len(made)
    assert pieces >= 10000 and coarser >= 5


def test_transformed_polygons_keep_their_ints():
    """Transform.polygon classifies on its input's ints, mapped: for all 8
    symmetries its classes, edges and edge index rows (divided by D) equal
    those of a polygon built from a fresh scaling of the same vertices, and
    vertex i of the input is vertex i of the image under a rotation and
    vertex n - 1 - i under a mirror."""
    for t in TRANSFORMS.values():
        for p in CORPUS + MAPPED:
            q = t.polygon(p)
            fresh = RectPolygon(q.vertices, _trusted=True)
            assert q.classes == fresh.classes, (t, p.vertices)
            assert _edge_table(q) == _edge_table(fresh), (t, p.vertices)
            assert _index_rows(q) == _index_rows(fresh), (t, p.vertices)
            image = [q.vertices[p.n - 1 - i if t.name.startswith("mirror") else i] for i in range(p.n)]
            assert image == [t.point(v) for v in p.vertices], (t, p.vertices)


def test_trusted_collinear_vertex_at_fractional_coordinates_rejected():
    """The integer classes still find a vertex inside a straight run."""
    third = Fraction(1, 3)
    with pytest.raises(NotRectilinear, match="collinear vertex at index 1"):
        RectPolygon([Point(0, 0), Point(third, 0), Point(1, 0), Point(1, 1), Point(0, 1)], _trusted=True)
    for p in MAPPED[::20]:
        a, b = p.vertices[0], p.vertices[1]
        ring = [a, a + (b - a) * Fraction(2, 7)] + list(p.vertices[1:])
        with pytest.raises(NotRectilinear, match="collinear vertex at index 1"):
            RectPolygon(ring, _trusted=True)
