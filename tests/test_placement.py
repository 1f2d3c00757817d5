import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from rectbeacon import placement
from rectbeacon.errors import InternalCaseError, NotAChord, NotMonotone, TooManyReflexVertices
from rectbeacon.generators import coverage_spiral, random_rectilinear, random_x_monotone
from rectbeacon.geometry import Point
from rectbeacon.kernel import in_all_cones, kernel
from rectbeacon.placement import (
    _pocket_rows,
    cover,
    cover_base,
    cover_monotone,
    find_safe_cut,
    route_beacons,
)
from rectbeacon.polygon import (
    RectPolygon,
    _cut_rings,
    _piece,
    chord_sides,
    chords_on_line,
    pocket,
    split,
    validate,
    vertex_chord,
)
from rectbeacon.transforms import TRANSFORMS
from rectbeacon.verify import SamplePlan, verify_coverage, verify_routing

from shapes import CASE_B_I, CASE_B_III, l_shape, square, u_shape

# A 16-vertex polygon with r = 6 that admits no safe cut, found by
# exhaustive candidate enumeration over a fuzz corpus and frozen here.
NO_SAFE_CUT = [
    (0, 0), (59, 0), (59, 71), (67, 71), (67, 118), (33, 118), (33, 55),
    (4, 55), (4, 118), (2, 118), (2, 105), (0, 105), (0, 51), (17, 51),
    (17, 45), (0, 45),
]


def ceil3(x):
    return -(-x // 3)


def test_cover_base_square_corner():
    assert cover_base(square()).beacons == [Point(0, 0)]


def test_cover_base_l_shape_reflex_vertex():
    assert cover_base(l_shape()).beacons == [Point(2, 2)]


def test_cover_base_two_adjacent_reflex_edges():
    # Three consecutive reflex vertices; the shared vertex carries the beacon.
    p, _ = coverage_spiral(3)
    bs = cover_base(p)
    assert len(bs) == 1
    b = bs.beacons[0]
    assert p.vertex_index(b) is not None
    assert in_all_cones(p, b)


def test_cover_base_rejects_large_r():
    p, _ = coverage_spiral(4)
    with pytest.raises(TooManyReflexVertices):
        cover_base(p)


def test_find_safe_cut_exists_for_r4():
    # r = 4 = 1 mod 3: any normal cut with a reflex vertex on each side works.
    for seed in range(6):
        p = random_rectilinear(12, seed)
        chord = find_safe_cut(p)
        assert chord is not None
        minus, plus = split(p, chord)
        assert minus.r >= 1 and plus.r >= 1
        assert ceil3(minus.r) + ceil3(plus.r) == ceil3(p.r)


def test_find_safe_cut_none_on_frozen_instance():
    p = validate(NO_SAFE_CUT)
    assert p.r == 6
    assert find_safe_cut(p) is None
    # the budget still holds through the case analysis
    bs = cover(p)
    assert len(bs) <= 2
    rep = verify_coverage(p, bs.beacons, SamplePlan(grid=24))
    assert rep.passed, rep.witnesses[:2]


def test_cover_spiral_exact_sizes():
    for r in range(1, 11):
        p, _ = coverage_spiral(r)
        bs = cover(p)
        assert len(bs) == ceil3(r), (r, len(bs))


def test_cover_beacons_are_reflex_vertices():
    for seed in range(25):
        p = random_rectilinear(4 + 2 * (seed % 10 + 1), seed + 42)
        bs = cover(p)
        refl = {p.vertices[i] for i in p.reflex_indices}
        assert all(b in refl for b in bs.beacons)


def test_cover_and_verify_fuzz():
    for seed in range(20):
        p = random_rectilinear(4 + 2 * (seed % 9), seed + 4242)
        bs = cover(p)
        assert len(bs) <= max(1, ceil3(p.r))
        rep = verify_coverage(p, bs.beacons, SamplePlan(grid=14, jitter=8, seed=seed))
        assert rep.passed, (seed, rep.witnesses[:1])


def test_cover_monotone_single_reflex_edge():
    # x-monotone with one reflex edge: the beacon sits on that edge.
    p = validate([(0, 0), (10, 0), (10, 6), (7, 6), (7, 3), (3, 3), (3, 6), (0, 6)])
    assert p.monotonicity()["x_monotone"]
    bs = cover_monotone(p)
    assert len(bs) == 1
    b = bs.beacons[0]
    assert b.y == 3 and Fraction(3) <= b.x <= Fraction(7)
    assert verify_coverage(p, bs.beacons, SamplePlan(grid=20)).passed


def test_cover_monotone_square():
    assert len(cover_monotone(square())) == 1


def test_cover_monotone_rejects_non_monotone():
    p, _ = coverage_spiral(4)
    with pytest.raises(NotMonotone):
        cover_monotone(p)


def test_cover_monotone_bound_fuzz():
    for seed in range(20):
        p = random_x_monotone(4 + 2 * (seed % 10), seed)
        bs = cover_monotone(p)
        assert len(bs) <= p.r // 4 + 1
        rep = verify_coverage(p, bs.beacons, SamplePlan(grid=14))
        assert rep.passed, (seed, rep.witnesses[:1])


def find_xy_monotone_pocket(poly):
    """(edge index, endpoint vertex index) of the pocket with the fewest
    vertices, ties to the least indices, which the built pocket shows to
    be xy-monotone."""
    if not poly.reflex_edges():
        raise NotAChord("polygon has no reflex edge; it is already xy-monotone")
    (e_idx, v_idx), row = min(_pocket_rows(poly).items(), key=lambda kv: (kv[1].n, kv[0]))
    pk = pocket(poly, e_idx, v_idx)
    if not pk.is_xy_monotone() or (pk.r, pk.n) != (row.r, row.n):
        raise InternalCaseError(f"chosen pocket {pk} is not xy-monotone or not {row}")
    return e_idx, v_idx


def test_find_xy_monotone_pocket_u_shape():
    p = u_shape()
    e_idx, v_idx = find_xy_monotone_pocket(p)
    pk = pocket(p, e_idx, v_idx)
    assert pk.is_xy_monotone()
    assert pk.n == 4  # both pockets are rectangles


def test_find_xy_monotone_pocket_spiral():
    p, _ = coverage_spiral(4)
    e_idx, v_idx = find_xy_monotone_pocket(p)
    assert pocket(p, e_idx, v_idx).is_xy_monotone()


def test_route_monotone_needs_nothing():
    assert len(route_beacons(square())) == 0
    p = validate([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])  # xy-monotone L
    assert len(route_beacons(p)) == 0


def test_route_u_shape_one_beacon():
    p = u_shape()
    bs = route_beacons(p)
    assert len(bs) <= 1
    pairs = [(Point(5, 3), Point(1, 3)), (Point(1, 3), Point(5, 3))]
    assert verify_routing(p, bs.beacons, pairs=pairs).passed


def test_route_bound_and_verify_fuzz():
    for seed in range(12):
        p = random_rectilinear(4 + 2 * (seed % 8), seed + 2024)
        bs = route_beacons(p)
        assert len(bs) <= 3 * p.r // 4
        rep = verify_routing(p, bs.beacons, pair_count=20, seed=seed)
        assert rep.passed, (seed, rep.stats)


def test_route_chain_length_bounded():
    for seed in range(8):
        p = random_rectilinear(20, seed + 650)
        bs = route_beacons(p)
        rep = verify_routing(p, bs.beacons, pair_count=20, seed=seed)
        assert rep.passed
        assert rep.stats["max_chain"] <= len(bs) + 1


def _trace_beacons(node):
    """The beacons of a trace node and of every node below it."""
    return set(node.beacons).union(*(_trace_beacons(c) for c in node.children))


def test_trace_beacons_are_the_placed_beacons():
    """Together the trace nodes name exactly the beacons placed, in the
    input's frame, also where a placement read its cases in another frame:
    the no-safe-cut frames of cover and the y-monotone sweep of
    cover_monotone."""
    fuzz = [random_rectilinear(8 + 2 * (s % 30), s) for s in range(90)]
    for p in fuzz + [TRANSFORMS["mirror_x"].polygon(q) for q in fuzz]:
        for place in (cover, route_beacons):
            bs = place(p)
            assert _trace_beacons(bs.trace) == set(bs.beacons), (place.__name__, p.vertices)
    for s in range(20):
        p = TRANSFORMS["rot90"].polygon(random_x_monotone(8 + 2 * (s % 10), s))
        bs = cover_monotone(p)
        assert _trace_beacons(bs.trace) == set(bs.beacons), p.vertices


def _presentations(p):
    """p under each of the 8 symmetries, each started at 3 vertices."""
    for t in TRANSFORMS.values():
        q = t.polygon(p)
        for k in (0, q.n // 3, 2 * q.n // 3):
            yield RectPolygon(q.vertices[k:] + q.vertices[:k], _trusted=True)


def _nodes(node):
    """The nodes of a trace, node first."""
    return [node] + [m for c in node.children for m in _nodes(c)]


def _labelled(node, label):
    """The nodes of a trace with the given label."""
    return [m for m in _nodes(node) if m.label == label]


# A no-safe-cut frame's give-up reason when the horizontal reflex edge at
# v, the first reflex vertex below the 1-cut, faces away from the cut.
_FACES_AWAY = re.compile(r"(\w+) gave up: v = Point\([-\d/]+, [-\d/]+\): its reflex edge faces away from the 1-cut")


def test_cover_monotone_names_cuts_of_its_input():
    """A y-monotone polygon is swept from high y to low y: the cut each
    root mono_cut node names is a horizontal cut of the input, and one of
    its pieces is the rest the node recurses into."""
    cuts = 0
    for s in range(60):
        p = TRANSFORMS["rot90"].polygon(random_x_monotone(8 + 2 * (s % 20), s))
        for node in _labelled(cover_monotone(p).trace, "mono_cut")[:1]:
            o = re.fullmatch(r"Chord\(([HV])=.*\)", node.detail).group(1)
            assert o == "H", (s, node.detail)
            chord, = [c for c in (vertex_chord(p, i, o) for i in p.reflex_indices) if repr(c) == node.detail]
            rest, = node.children
            assert rest.r in {piece.r for piece in split(p, chord)}, (s, node.detail)
            cuts += 1
    assert cuts >= 40


def test_cover_across_presentations():
    """Cover reads its no-safe-cut cases in the frame it is given: under
    every symmetry and start vertex it keeps the bound with reflex
    vertices, every no_safe node it leaves ran the top case, every frame
    that gave up before it did so because v's reflex edge faced away from
    the 1-cut, never on the top case's identity, and one presentation of
    each polygon that reached them guards it."""
    labels = Counter()
    for s in range(100):
        p = random_rectilinear(8 + 2 * (s % 30), s)
        verified = False
        for k, q in enumerate(_presentations(p)):
            bs = cover(q)
            assert len(bs) <= ceil3(q.r), (s, k)
            assert set(bs.beacons) <= {q.vertices[i] for i in q.reflex_indices}, (s, k)
            assert _trace_beacons(bs.trace) == set(bs.beacons), (s, k)
            no_safe = [m for m in _nodes(bs.trace) if m.label.startswith("no_safe[")]
            for m in no_safe:
                case, = m.children
                assert case.label.startswith("top("), (s, k, m.label, case.label)
                assert all(_FACES_AWAY.fullmatch(part) for part in m.detail.split("; ") if m.detail), \
                    (s, k, m.label, m.detail)
                labels.update([m.label, case.label])
            if no_safe and not verified:
                rep = verify_coverage(q, bs.beacons, SamplePlan(grid=20, jitter=8, seed=s))
                assert rep.passed, (s, k, rep.witnesses[:1])
                verified = True
    assert sum(v for label, v in labels.items() if label.startswith("no_safe[")) >= 100, labels
    assert labels["no_safe[id]"] >= 40 and labels["no_safe[rot180]"] >= 40, labels
    assert labels["top(b-wall)"] >= 20, labels


def test_cover_reads_a_faced_away_edge_in_rot180():
    """On random_rectilinear(40, 4) cover reaches a no-safe-cut node where
    v's reflex edge faces away from the 1-cut in frames id and mirror_x;
    rot180, of the other y-sense, reads the top case there, and the
    beacons guard the polygon."""
    p = random_rectilinear(40, 4)
    bs = cover(p)
    node, = _labelled(bs.trace, "no_safe[rot180]")
    gave_up = [_FACES_AWAY.fullmatch(part) for part in node.detail.split("; ")]
    assert all(gave_up) and [m.group(1) for m in gave_up] == ["id", "mirror_x"], node.detail
    rep = verify_coverage(p, bs.beacons, SamplePlan(grid=20, jitter=8))
    assert rep.passed, rep.witnesses[:1]


def test_cover_swaps_the_axes_when_no_sense_reads_the_top_case():
    """In presentations rot270 and mirror_anti of random_rectilinear(84,
    700998) cover reaches a node (r = 9, n = 22) where v's reflex edge
    faces away from the 1-cut in all four frames that keep the axes; a
    frame that swaps them reads the top case, and the beacons guard the
    polygon within the bound, at reflex vertices."""
    p = random_rectilinear(84, 700998)
    for name in ("rot270", "mirror_anti"):
        q = TRANSFORMS[name].polygon(p)
        bs = cover(q)
        assert len(bs) <= ceil3(q.r) == 14, name
        assert set(bs.beacons) <= {q.vertices[i] for i in q.reflex_indices}, name
        swapped = [m for m in _nodes(bs.trace) if m.label in {f"no_safe[{f.name}]" for f in placement._FRAMES[4:]}]
        assert swapped, name
        for m in swapped:
            gave_up = [_FACES_AWAY.fullmatch(part) for part in m.detail.split("; ")]
            assert all(gave_up) and [g.group(1) for g in gave_up][:4] == ["id", "mirror_x", "rot180", "mirror_y"], \
                (name, m.detail)
        rep = verify_coverage(q, bs.beacons, SamplePlan(grid=20, jitter=8))
        assert rep.passed, (name, rep.witnesses[:1])


def test_cover_case_b_witnesses_reach_both_walls_reflex():
    """CASE_B_I and CASE_B_III, in all eight presentations, reach the end of
    the top case (b) where both walls are reflex edges: top(b-i,d1),
    top(b-i,d2) and top(b-iii) each place beacons, top(b-ii) never runs,
    and every cover guards its polygon with at most 2 = ceil(6/3) beacons,
    all reflex vertices named by the trace."""
    labels = Counter()
    for ring in (CASE_B_I, CASE_B_III):
        p = validate(ring)
        assert p.r == 6
        for name, t in TRANSFORMS.items():
            q = t.polygon(p)
            bs = cover(q)
            labels.update(m.label for m in _nodes(bs.trace) if m.label.startswith("top("))
            assert len(bs) <= 2, name
            assert set(bs.beacons) <= {q.vertices[i] for i in q.reflex_indices}, name
            assert _trace_beacons(bs.trace) == set(bs.beacons), name
            rep = verify_coverage(q, bs.beacons, SamplePlan(grid=100, jitter=200))
            assert rep.passed, (name, rep.witnesses[:1])
    assert labels["top(b-i,d1)"] and labels["top(b-i,d2)"] and labels["top(b-iii)"], labels
    assert "top(b-ii)" not in labels, labels


def _route_polys():
    """Twenty fuzz polygons and the one whose sweep of C stops at a reflex
    edge whose chord cuts off a piece reaching back towards e's line."""
    return [random_rectilinear(10 + 2 * seed, seed + 777) for seed in range(20)] + [random_rectilinear(46, 169)]


def test_route_across_presentations():
    """Routing runs in the frame it is given: under every symmetry and start
    vertex it keeps the bound, and one presentation per polygon routes.
    Under some symmetries the last polygon's sweep of C stops at a reflex
    edge whose chord at one end cuts off a piece reaching back towards e's
    line, not the piece the sweep started in.  The sweep segment through a
    reflex edge is cut at both its ends whichever comes first, so every
    three-piece split of C recurses into the two pieces below, C2 and C3."""
    three = 0
    for seed, p in enumerate(_route_polys()):
        for k, q in enumerate(_presentations(p)):
            bs = route_beacons(q)
            assert len(bs) <= 3 * q.r // 4, (seed, k)
            for node in _labelled(bs.trace, "route(C three-piece)"):
                assert [c.label for c in node.children] == ["C2", "C3"], (seed, k, node.detail)
                three += 1
            if k == 5 + seed % 19:
                rep = verify_routing(q, bs.beacons, pair_count=30, seed=seed)
                assert rep.passed, (seed, k, rep.stats)
    assert three >= 60


def test_sweep_band_counts_match_built_pieces(monkeypatch):
    """The sweep of C reads each band's monotonicity off prefix counts: at
    every band it visits, on the polygons of test_route_across_presentations
    and of c07 in all their presentations, _side_monotone on each side of
    each chord of the band's line says what is_xy_monotone says of the piece
    built on that side.  The line through the sweep's stop vertex, at the
    level of an edge, is read for the chord through that vertex: it is no
    band."""
    bands = sides = 0

    def checked_chords(poly, axis, level):
        nonlocal bands, sides
        chords = chords_on_line(poly, axis, level)
        if any(x.orientation == axis and x.level == level for x in poly.edges):
            assert any(end in chord.ends for chord in chords for end in
                       ((i, True) for i in poly.reflex_indices)), (poly.vertices, axis, level)
            return chords
        for chord in chords:
            assert not chord.ends[0][1] and not chord.ends[1][1], (poly.vertices, chord)
            for side in chord_sides(chord):
                start = (0, side.first)
                built = _piece(_cut_rings(poly, [chord], (start,))[start])
                assert placement._side_monotone(poly, side.s, side.t) == built.is_xy_monotone(), (poly.vertices, chord)
                sides += 1
        bands += 1
        return chords

    monkeypatch.setattr(placement, "chords_on_line", checked_chords)
    polys = _route_polys() + [random_rectilinear(4 + 2 * (seed % 15), seed * 11 + 17) for seed in range(200)]
    for p in polys:
        for q in _presentations(p):
            route_beacons(q)
    assert bands >= 3000 and sides >= 6000, (bands, sides)


def test_carried_pocket_tables_match_fresh_summaries(monkeypatch):
    """Every routing node's pocket table, carried down from the root's,
    holds a row for both ends of every reflex edge of the node's polygon,
    and each row is the row of a fresh root table, _pocket_rows, there:
    r, n, monotonicity, the pocket's side, one of chord_sides' two, and
    the chord with its located ends, which is vertex_chord's.  The polygons are output_dump's route corpus and those of
    test_route_across_presentations in every presentation, whose sweeps of
    C carry tables into two- and three-piece splits; some rows cross a cut
    chord and are checked where they end on it."""
    from output_dump import corpus

    nodes, crossed = [], 0
    route_rec, assert_chord = placement._route_rec, placement._assert_chord

    def recorded(poly, rows, node):
        nodes.append((poly, rows))
        return route_rec(poly, rows, node)

    def counted(poly, chord):
        nonlocal crossed
        crossed += 1
        return assert_chord(poly, chord)

    monkeypatch.setattr(placement, "_route_rec", recorded)
    monkeypatch.setattr(placement, "_assert_chord", counted)
    polys = [p for _, p in corpus() if p.n <= 64]
    polys += [q for p in _route_polys() for q in _presentations(p)]
    labels = Counter()
    for p in polys:
        labels.update(m.label for m in _nodes(route_beacons(p).trace))
    rows = 0
    for poly, table in nodes:
        fresh = _pocket_rows(poly)
        assert set(table) == set(fresh) == {(e.index, vi) for e in poly.reflex_edges()
                                            for vi in (e.index, (e.index + 1) % poly.n)}, poly.vertices
        for (e_idx, vi), row in table.items():
            chord = vertex_chord(poly, vi, poly.edges[e_idx].orientation)
            carried = placement._row_chord(poly, e_idx, vi, row)
            assert (carried.level, carried.lo, carried.hi, carried.ends) == \
                (chord.level, chord.lo, chord.hi, chord.ends), (poly.vertices, e_idx, vi)
            assert (row.s, row.t, row.first) in chord_sides(chord), (poly.vertices, e_idx, vi)
            assert row == fresh[e_idx, vi], (poly.vertices, e_idx, vi)
            rows += 1
    assert labels["C2"] >= 250 and labels["C3"] >= 140, labels
    assert len(nodes) >= 5000 and rows >= 17000 and crossed >= 1000, (len(nodes), rows, crossed)


def test_route_shoots_only_at_the_root(monkeypatch):
    """On the n = 320 coverage spiral, routing reads every pocket from the
    carried tables: one pocket table shot, the root's, no shot-table sweep
    after the root's two, and at most 2n chord checks."""
    from rectbeacon import polygon

    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((placement, "_pocket_rows"), (polygon, "_sweep"),
                         (polygon, "_assert_chord"), (placement, "_assert_chord")):
        counting(module, name)
    p, _ = coverage_spiral(158)
    assert p.n == 320
    route_beacons(p)
    assert calls["_pocket_rows"] == 1 and calls["_sweep"] <= 2, calls
    assert calls["_assert_chord"] <= 2 * p.n, calls


def test_route_sweeps_at_most_twice(monkeypatch):
    """Routing reads the chord through the C sweep's stop vertex off the line
    there, not off a fresh shot table of C: on output_dump's route corpus
    (n <= 64) no route_beacons call runs polygon._sweep more than twice."""
    from output_dump import corpus
    from rectbeacon import polygon

    polys = [p for _, p in corpus() if p.n <= 64]
    assert len(polys) == 256
    sweep, most = polygon._sweep, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return sweep(*args)

    monkeypatch.setattr(polygon, "_sweep", counted)
    for p in polys:
        calls = 0
        route_beacons(p)
        most = max(most, calls)
    assert most <= 2, most


def _depth():
    """The number of Python frames on the stack."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_placement_runs_in_constant_stack_depth():
    """cover and route_beacons run their steps on one work list, so they
    stay within 40 frames of their caller on the n = 320 coverage spiral
    and on random_rectilinear(80, 3), however deep their traces."""
    polys = [coverage_spiral(158)[0], random_rectilinear(80, 3)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 40)
    try:
        for p in polys:
            route_beacons(p)
            cover(p)
    finally:
        sys.setrecursionlimit(limit)


def test_placement_memory_on_the_spiral():
    """A step keeps only the pieces still to be placed, not its ancestors'
    pieces and pocket tables: on the n = 320 coverage spiral the tracemalloc
    peak of route_beacons stays under 1 MiB and that of cover under 0.5 MiB."""
    for place, bound in ((route_beacons, 1 << 20), (cover, 1 << 19)):
        p, _ = coverage_spiral(158)
        tracemalloc.start()
        try:
            place(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (place.__name__, peak)


def test_route_cuts_only_the_split_it_takes(monkeypatch):
    """Routing selection reads every move, the pair split's budget too, off
    the pocket table, so each _three_pieces call cuts the split that a node
    takes: none on (14, 206213), where the root is stuck before any cut,
    and one per pair, rA >= 1 or rA = 0 node on (22, 701527), whose root
    takes the pair split."""
    calls = 0
    three_pieces = placement._three_pieces

    def counted(*args):
        nonlocal calls
        calls += 1
        return three_pieces(*args)

    monkeypatch.setattr(placement, "_three_pieces", counted)
    with pytest.raises(InternalCaseError, match="routing is stuck"):
        route_beacons(random_rectilinear(14, 206213))
    assert calls == 0
    bs = route_beacons(random_rectilinear(22, 701527))
    assert calls == 3
    assert [m.label for m in _nodes(bs.trace) if m.label.startswith("route(")] == \
        ["route(pair-fallback)", "route(rA=0)", "route(rA=0)", "route(C two-piece)"]
    assert bs.beacons == [Point(53, 55), Point(0, 55), Point(68, Fraction(131, 2)), Point(Fraction(33, 2), 116),
                          Point(118, 28), Point(118, 65)]


# Valid polygons on which routing gets stuck: each has no routing pocket
# (every rectangle pocket's complement wraps round e's line), and every
# three-piece split of the pair fallback costs more than floor(3r/4).
ROUTE_GAP = [(14, 206213), (20, 203426), (28, 219570)]


@pytest.mark.xfail(strict=True, raises=InternalCaseError,
                   reason="known gap in routing pocket selection; see the FOUND line on "
                          "route_beacons getting stuck in CHANGES.md")
def test_route_gap_witnesses():
    for n, seed in ROUTE_GAP:
        p = random_rectilinear(n, seed)
        bs = route_beacons(p)
        assert len(bs) <= 3 * p.r // 4, (n, seed)
        rep = verify_routing(p, bs.beacons, pair_count=30, seed=seed)
        assert rep.passed, (n, seed, rep.stats)
