import random
from collections import Counter
from fractions import Fraction

import pytest

from rectbeacon.errors import GeneralPositionViolated, NotAChord, NotRectilinear, NotSimple
from rectbeacon.generators import coverage_spiral, random_rectilinear, uniform_spiral
from rectbeacon.geometry import Point, midpoint
from rectbeacon import polygon
from rectbeacon.polygon import (
    CONVEX,
    REFLEX,
    RectPolygon,
    boundary_hits,
    chord_beside,
    chords_on_line,
    count_reflex_below,
    m_cut_class,
    pocket,
    split,
    validate,
    vertex_chord,
)

import cut_oracle
from segment_oracle import first_hit
from shapes import (
    L_SHAPE,
    OVERLAPPING_EDGES,
    SQUARE,
    STEP_FLOOR,
    T_JUNCTION,
    U_SHAPE,
    VERTEX_ON_EDGE,
    W_SHAPE,
    W_SHAPE_VERTICAL,
    comb,
    l_shape,
    square,
    u_shape,
)
from validate_oracle import validate_oracle


def test_validate_square():
    p = square()
    assert p.n == 4
    assert p.r == 0
    assert all(c == CONVEX for c in p.classes)


def test_validate_l_shape():
    p = l_shape()
    assert p.n == 6
    assert p.r == 1
    assert p.classes[p.vertex_index(Point(2, 2))] == REFLEX


def test_n_equals_2r_plus_4():
    for verts in (SQUARE, L_SHAPE, U_SHAPE):
        p = validate(verts)
        assert p.n == 2 * p.r + 4


def test_clockwise_input_reversed():
    p = validate(list(reversed(SQUARE)))
    assert p.was_reversed
    assert p.area() == 1


def test_rejects_short_list():
    with pytest.raises(NotRectilinear):
        validate([(0, 0), (1, 0), (1, 1)])


def test_rejects_diagonal_edge():
    with pytest.raises(NotRectilinear):
        validate([(0, 0), (2, 1), (2, 2), (0, 2)])


def test_rejects_collinear_vertex_unless_merged():
    verts = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]
    with pytest.raises(NotRectilinear):
        validate(verts)
    p = validate(verts, merge_collinear=True)
    assert p.n == 4


def test_rejects_self_intersection():
    bad = [(0, 0), (3, 0), (3, 2), (1, 2), (1, -1), (0, -1)]
    with pytest.raises(NotSimple):
        validate(bad)


def test_general_position_violation():
    with pytest.raises(GeneralPositionViolated) as ei:
        validate(W_SHAPE)
    assert ei.value.pair == (Point(6, 2), Point(4, 2))
    _check_pair(("GeneralPositionViolated", ei.value.pair), W_SHAPE)


def test_general_position_violation_vertical():
    with pytest.raises(GeneralPositionViolated) as ei:
        validate(W_SHAPE_VERTICAL)
    assert set(ei.value.pair) == {Point(2, 4), Point(2, 6)}
    _check_pair(("GeneralPositionViolated", ei.value.pair), W_SHAPE_VERTICAL)


def test_aligned_reflex_vertices_joined_along_the_boundary_accepted():
    p = validate(STEP_FLOOR)
    assert {p.vertices[i] for i in p.reflex_indices} >= {Point(1, 1), Point(4, 1)}


@pytest.mark.parametrize("ring", [T_JUNCTION, VERTEX_ON_EDGE, OVERLAPPING_EDGES],
                         ids=["t_junction", "vertex_on_edge", "overlapping_edges"])
def test_rejects_touching_edges(ring):
    with pytest.raises(NotSimple):
        validate(ring)


def test_clockwise_input_with_reflex_vertices():
    p = validate(U_SHAPE[::-1])
    assert p.was_reversed
    assert p.vertices == validate(U_SHAPE).vertices
    assert p.r == 2


def test_general_position_oracle_matches_pairwise_scan():
    # Oracle: compare coordinates of all reflex pairs and test chord interiority.
    p = u_shape()
    refl = [p.vertices[i] for i in p.reflex_indices]
    assert refl[0].y == refl[1].y  # reflex edge endpoints share y and that is fine


def test_u_shape_reflex_edge_allowed():
    p = u_shape()  # its only reflex pair is joined by a boundary edge, not a cut
    assert p.r == 2


def test_monotonicity_square():
    assert square().monotonicity() == {"x_monotone": True, "y_monotone": True}


def test_monotonicity_u_shape():
    m = u_shape().monotonicity()
    assert m["x_monotone"] is True
    assert m["y_monotone"] is False


def sweep_monotone_oracle(poly, axis):
    """Brute monotonicity check: every axis line meets P in <= 1 component."""
    if axis == "x":  # vertical sweep lines
        coords = sorted({v.x for v in poly.vertices})
        lines = "V"
    else:
        coords = sorted({v.y for v in poly.vertices})
        lines = "H"
    probes = []
    for i in range(len(coords) - 1):
        probes.append((coords[i] + coords[i + 1]) / 2)
    for t in probes:
        # Components of line cap P: chords plus boundary runs; count maximal
        # closed intervals of the closed intersection.
        spans = cut_oracle.chords_on_line(poly, "V" if lines == "V" else "H", t)
        if len(spans) > 1:
            return False
    return True


def test_monotonicity_matches_sweep_oracle_on_fixtures():
    for poly in (square(), l_shape(), u_shape()):
        m = poly.monotonicity()
        assert m["x_monotone"] == sweep_monotone_oracle(poly, "x")
        assert m["y_monotone"] == sweep_monotone_oracle(poly, "y")


def test_split_square_vertical():
    p = square()
    chord, = chords_on_line(p, "V", Fraction(1, 2))
    minus, plus = split(p, chord)
    assert minus.area() == Fraction(1, 2)
    assert plus.area() == Fraction(1, 2)
    assert minus.r == plus.r == 0
    # minus is the left piece
    assert max(v.x for v in minus.vertices) == Fraction(1, 2)
    assert min(v.x for v in plus.vertices) == Fraction(1, 2)


def test_split_l_shape_at_reflex_vertex():
    p = l_shape()
    minus, plus = split(p, vertex_chord(p, p.vertex_index(Point(2, 2)), "H"))
    assert sorted(v.key() for v in minus.vertices) == sorted(
        Point(x, y).key() for x, y in [(0, 0), (4, 0), (4, 2), (0, 2)]
    )
    assert sorted(v.key() for v in plus.vertices) == sorted(
        Point(x, y).key() for x, y in [(2, 2), (4, 2), (4, 4), (2, 4)]
    )
    assert minus.r == plus.r == 0


def test_split_conserves_area():
    p = u_shape()
    chord, = chords_on_line(p, "V", Fraction(1))
    minus, plus = split(p, chord)
    assert minus.area() + plus.area() == p.area()


def test_normal_cut_is_convex_edge_in_both_parts():
    p = u_shape()
    chord, = chords_on_line(p, "V", Fraction(1))  # normal vertical cut at x=1
    minus, plus = split(p, chord)
    for part in (minus, plus):
        for e in part.edges:
            if e.orientation == "V" and e.a.x == 1:
                assert e.kind == "convex"


def test_pocket_u_shape_both_ends():
    p = u_shape()
    e = next(e for e in p.edges if e.kind == "reflex")
    v_left = p.vertex_index(Point(2, 2))
    v_right = p.vertex_index(Point(4, 2))
    pk_l = pocket(p, e.index, v_left)
    assert sorted(v.key() for v in pk_l.vertices) == sorted(
        Point(x, y).key() for x, y in [(0, 2), (2, 2), (2, 4), (0, 4)]
    )
    pk_r = pocket(p, e.index, v_right)
    assert sorted(v.key() for v in pk_r.vertices) == sorted(
        Point(x, y).key() for x, y in [(4, 2), (6, 2), (6, 4), (4, 4)]
    )


def test_pocket_has_fewer_vertices():
    p = u_shape()
    e = next(e for e in p.edges if e.kind == "reflex")
    for vi in (p.vertex_index(Point(2, 2)), p.vertex_index(Point(4, 2))):
        assert pocket(p, e.index, vi).n < p.n


def test_count_reflex_below_l_shape():
    p = l_shape()
    vi = p.vertex_index(Point(2, 2))
    chord = chord_beside(p, vi, "H", -1)
    assert count_reflex_below(p, chord) == 0
    assert m_cut_class(p, chord) == 0


def test_count_reflex_above_includes_vertex():
    p = l_shape()
    vi = p.vertex_index(Point(2, 2))
    chord = chord_beside(p, vi, "H", 1)
    assert count_reflex_below(p, chord) == 1


def _spans(poly, axis, level):
    return [(c.lo, c.hi) for c in chords_on_line(poly, axis, level)]


def test_chords_on_line_u_shape():
    p = u_shape()
    assert _spans(p, "H", Fraction(1)) == [(Fraction(0), Fraction(6))]
    assert _spans(p, "H", Fraction(3)) == [
        (Fraction(0), Fraction(2)),
        (Fraction(4), Fraction(6)),
    ]
    # At the reflex edge level the run is boundary, not chord interior.
    assert _spans(p, "H", Fraction(2)) == [
        (Fraction(0), Fraction(2)),
        (Fraction(4), Fraction(6)),
    ]


def test_chords_on_line_matches_point_probing():
    rng = random.Random(7)
    p = u_shape()
    for _ in range(50):
        t = Fraction(rng.randrange(1, 40), 10)
        spans = _spans(p, "H", t)
        for lo, hi in spans:
            assert p.contains(midpoint(Point(lo, t), Point(hi, t))) == "in"
        # probe points between chords are not interior
        xs = sorted([s for sp in spans for s in sp])
        for k in range(1, len(xs) - 1, 2):
            probe = Point((xs[k] + xs[k + 1]) / 2, t)
            if xs[k] != xs[k + 1]:
                assert p.contains(probe) != "in"


def test_vertex_chord_rejects_convex_vertex():
    p = square()
    with pytest.raises(NotAChord):
        vertex_chord(p, 0, "H")


def test_contains_modes():
    p = l_shape()
    assert p.contains(Point(1, 1)) == "in"
    assert p.contains(Point(0, 0)) == "on"
    assert p.contains(Point(Fraction(1, 2), 2)) == "on"
    assert p.contains(Point(1, 3)) == "out"


def test_boundary_hits_tie_order_and_collinear_edge():
    p = u_shape()  # vertex 5 is (2,2), 4 is (4,2); edge 1 runs up x=6
    z = Point(1, 2)
    assert boundary_hits(p, z, Point(1, 0)) == [
        (Fraction(1), Point(2, 2), "vertex", 5),
        (Fraction(3), Point(4, 2), "vertex", 4),
        (Fraction(5), Point(6, 2), "edge", 1),
    ]
    assert boundary_hits(p, z, Point(1, 0), 1) == [(Fraction(1), Point(2, 2), "vertex", 5)]
    assert boundary_hits(p, z, Point(2, 0), 1) == [(Fraction(1, 2), Point(2, 2), "vertex", 5)]
    assert boundary_hits(p, Point(5, 1), Point(-2, -2), Fraction(1, 3)) == []


def _comb(k):
    """k fingers of width 2 on a base, every gap floor at y = 3 (not in general position)."""
    ring = [(0, 0), (4 * k - 2, 0)]
    for i in range(k - 1, -1, -1):
        ring += [(4 * i + 2, 10), (4 * i, 10)]
        if i:
            ring += [(4 * i, 3), (4 * i - 2, 3)]
    return validate(ring, check_general_position=False)


def _query_points(p, k=6):
    """Vertices, edge midpoints and interior grid points of p."""
    pts = list(p.vertices) + [midpoint(e.a, e.b) for e in p.edges]
    xmin, ymin, xmax, ymax = p.bbox()
    for i in range(1, k):
        for j in range(1, k):
            q = Point(xmin + (xmax - xmin) * Fraction(i, k), ymin + (ymax - ymin) * Fraction(j, k))
            if p.contains(q) == "in":
                pts.append(q)
    return pts


def _oracle_corpus():
    polys = [u_shape(), l_shape(), _comb(3), coverage_spiral(4)[0], uniform_spiral(3)[0]]
    polys += [random_rectilinear(n, seed) for n, seed in ((12, 1), (16, 2), (20, 3))]
    return polys


def test_boundary_hits_matches_segment_oracle():
    """Every contact of the segment z->b, walked by repeated oracle first hits."""
    queries = 0
    for p in _oracle_corpus():
        pts = _query_points(p)
        for z in pts:
            for b in pts:
                if z == b:
                    continue
                queries += 1
                hits = boundary_hits(p, z, b - z, 1)
                assert (hits[0] if hits else None) == first_hit(p, z, b), (p, z, b)
                walked, c = [], first_hit(p, z, b)
                while c is not None:
                    walked.append(c[1:])
                    c = first_hit(p, c[1], b) if c[1] != b else None
                assert [h[1:] for h in hits] == walked, (p, z, b)
    assert queries >= 10000


def test_boundary_hits_matches_oracle_on_axis_rays():
    """An axis ray is the segment extended past the bounding box."""
    for p in _oracle_corpus():
        xmin, ymin, xmax, ymax = p.bbox()
        far = xmax - xmin + ymax - ymin + 1
        for z in _query_points(p):
            for d in (Point(1, 0), Point(-1, 0), Point(0, 1), Point(0, -1)):
                hits = boundary_hits(p, z, d)
                want = first_hit(p, z, z + far * d)
                assert (hits[0][1:] if hits else None) == (want[1:] if want else None)
                if want:
                    assert hits[0][0] == want[0] * far
                assert [h[1:] for h in hits] == [h[1:] for h in boundary_hits(p, z, far * d, 1)]


def _random_ring(rng, m, g):
    """A ring of 2m distinct vertices on the g x g grid whose edges alternate
    between horizontal and vertical, so that it reaches the simplicity check."""
    while True:
        xs = [rng.randrange(g) for _ in range(m)]
        ys = [rng.randrange(g) for _ in range(m)]
        ring = [p for i in range(m) for p in ((xs[i], ys[i]), (xs[(i + 1) % m], ys[i]))]
        if all(xs[i] != xs[i - 1] and ys[i] != ys[i - 1] for i in range(m)) \
                and len(set(ring)) == 2 * m:
            return [Point(x, y) for x, y in ring]


def _coarsened(poly, rng):
    """poly's ring with two neighbouring x or y coordinates merged into one,
    which can make edges touch or reflex vertices align."""
    axis = rng.choice("xy")
    vals = sorted({getattr(v, axis) for v in poly.vertices})
    j = rng.randrange(1, len(vals))
    move = {vals[j]: vals[j - 1]}
    return [Point(move.get(v.x, v.x), v.y) if axis == "x" else Point(v.x, move.get(v.y, v.y))
            for v in poly.vertices]


def _reaches_simplicity_check(ring):
    """Distinct vertices and edges alternately horizontal and vertical."""
    orients = ["V" if a.x == b.x and a.y != b.y else "H" if a.y == b.y and a.x != b.x else None
               for a, b in zip(ring, ring[1:] + ring[:1])]
    return (len(set(ring)) == len(ring) and None not in orients
            and all(orients[i] != orients[i - 1] for i in range(len(ring))))


def _outcome(check, ring):
    """Error class and violating pair, or the vertices accepted."""
    try:
        poly = check(ring)
    except (NotSimple, GeneralPositionViolated) as exc:
        return type(exc).__name__, getattr(exc, "pair", None)
    return "valid", poly.vertices


def _check_pair(got, ring):
    """A general-position violation names the pair the walked chords give."""
    if got[0] == "GeneralPositionViolated":
        assert got[1] == cut_oracle.aligned_pair(validate(ring, check_general_position=False)), ring


def test_validate_matches_pairwise_oracle_on_random_rings():
    rng = random.Random(11)
    counts = Counter()
    for k in range(20000):
        ring = _random_ring(rng, *((4, 4) if k % 2 else (5, 5)))
        got = _outcome(validate, ring)
        assert got == _outcome(validate_oracle, ring), ring
        _check_pair(got, ring)
        counts[got[0]] += 1
    assert counts["NotSimple"] >= 1000, counts
    assert counts["GeneralPositionViolated"] >= 500, counts
    assert counts["valid"] >= 500, counts


def _generated_families():
    polys = [random_rectilinear(n, seed) for n in range(8, 196, 6) for seed in range(3)]
    polys += [coverage_spiral(r)[0] for r in range(1, 25)]
    polys += [uniform_spiral(r)[0] for r in range(1, 25)]
    return polys + [comb(k) for k in range(1, 30)] + [_comb(k) for k in range(2, 30)]


def test_validate_matches_pairwise_oracle_on_generated_families():
    polys = _generated_families()
    rng = random.Random(5)
    rings = [list(p.vertices) for p in polys] + [list(p.vertices)[::-1] for p in polys]
    rings += [r for r in (_coarsened(p, rng) for p in polys * 4)
              if _reaches_simplicity_check(r)]
    counts = Counter()
    for ring in rings:
        got = _outcome(validate, ring)
        assert got == _outcome(validate_oracle, ring), ring
        _check_pair(got, ring)
        counts[got[0]] += 1
    assert counts["NotSimple"] >= 100 and counts["GeneralPositionViolated"] >= 100, counts


# W_SHAPE, whose reflex corners (4,2) and (6,2) violate general position,
# with its left wall run down through the bottom edge: (1,5)-(1,-1) crosses it.
W_SHAPE_CROSSED = W_SHAPE[:-1] + [(1, 5), (1, -1), (0, -1)]


@pytest.mark.parametrize("ring, message", [
    (W_SHAPE_CROSSED, "edges 0 and 11 intersect at (1,0)"),
    (W_SHAPE_CROSSED[::-1], "edges 12 and 1 intersect at (1,0)"),
    ([(y, x) for x, y in W_SHAPE_CROSSED], "edges 11 and 0 intersect at (0,1)"),
    ([(y, x) for x, y in W_SHAPE_CROSSED[::-1]], "edges 1 and 12 intersect at (0,1)"),
], ids=["ccw", "cw", "mirrored_cw", "mirrored_ccw"])
def test_crossing_is_reported_before_general_position(ring, message):
    """The crossing wins, and its message names edges by their input index
    whichever way the ring runs."""
    pts = [Point(x, y) for x, y in ring]
    assert _outcome(validate, pts) == _outcome(validate_oracle, pts) == ("NotSimple", None)
    for check in (True, False):
        with pytest.raises(NotSimple) as ei:
            validate(ring, check_general_position=check)
        assert str(ei.value) == message


def test_validate_sweeps_once_per_axis_and_leaves_fresh_shot_tables(monkeypatch):
    """validate sweeps along x once, for the crossing check and the "V" shot
    rows, and along y once, for the "H" rows; both tables equal those a
    polygon builds afresh, in either orientation of the input."""
    calls = []
    sweep = polygon._sweep
    monkeypatch.setattr(polygon, "_sweep", lambda *args: calls.append(args) or sweep(*args))
    for p in _generated_families():
        if p.n > 64 and p.n % 3:
            continue
        in_general_position = not any(row is not None and row[2][1]
                                      for o in "HV" for row in p.shots(o))
        for ring in (list(p.vertices), list(p.vertices)[::-1]):
            calls.clear()
            q = validate(ring, check_general_position=in_general_position)
            fresh = RectPolygon(q.vertices, _trusted=True, _ints=q._ints)
            assert len(calls) == len(q._shots) == (2 if "H" in q._shots else 1)
            for o in q._shots:
                assert q._shots[o] == fresh.shots(o), (p, o)
