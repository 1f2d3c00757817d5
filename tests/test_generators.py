from fractions import Fraction

import pytest

from rectbeacon.attraction import attracts, attraction_path, DEAD_AMBIGUOUS
from rectbeacon.errors import GenerationFailed, NotCoverageSpiral
from rectbeacon.generators import (
    _ray_contacts,
    coverage_spiral,
    greedy_cover_spiral,
    random_rectilinear,
    random_x_monotone,
    routing_spiral,
    uniform_spiral,
)
from rectbeacon.geometry import Point, midpoint

from segment_oracle import boundary_hits_scan, first_hit


def test_coverage_spiral_zero_is_rectangle():
    p, d = coverage_spiral(0)
    assert p.n == 4
    assert d.spec.spine_lengths == (Fraction(1),)


def test_coverage_spiral_seven_sequence():
    p, d = coverage_spiral(7)
    rho, eps = Fraction(3), Fraction(1, 44)
    a = d.spec.spine_lengths
    assert p.n == 18
    assert a[0] == 1 and a[1] == 1
    assert a[2] == rho + eps
    assert a[3] == 1 + eps
    assert a[4] == rho + 2 * eps
    assert a[5] == rho ** 2 + 2 * eps
    # a6 follows the proof's length recursion (L, rho L, L), not the
    # misprinted closed form.
    assert a[6] == rho + 3 * eps


def test_coverage_spiral_constraint():
    for r in (1, 5, 12, 30):
        _, d = coverage_spiral(r)
        assert d.spec.rho > 2 + (Fraction(r, 2) + 2) * d.spec.eps


def test_spine_vertices_are_the_reflex_vertices():
    p, d = coverage_spiral(7)
    refl = {p.vertices[i] for i in p.reflex_indices}
    assert refl == set(d.spine[1:8])


def test_decomposition_tiles_exactly():
    for r in (0, 1, 4, 9):
        p, d = coverage_spiral(r)
        assert len(d.rects) == 3 * r + 2
        assert sum(rect.area() for _, _, rect in d.rects) == p.area()


def test_decomposition_side_lengths():
    _, d = coverage_spiral(6)
    a = d.spec.spine_lengths
    w = d.spec.widths
    for label, i, rect in d.rects:
        dx = rect.hi.x - rect.lo.x
        dy = rect.hi.y - rect.lo.y
        if label == "C":
            assert {dx, dy} == {w[i - 1], w[i]}
        else:
            assert a[i] / 2 in (dx, dy)
            assert w[i] in (dx, dy)


def test_widths_distinct_below_eps():
    _, d = coverage_spiral(9)
    w = d.spec.widths
    assert len(set(w)) == len(w)
    assert all(x < d.spec.eps for x in w)
    assert list(w) == sorted(w)


def test_greedy_matches_ceiling():
    for r in (4, 7, 9, 12):
        p, d = coverage_spiral(r)
        bs = greedy_cover_spiral(p, d)
        assert len(bs) == -(-r // 3)


def test_greedy_b1_in_c2_and_b2_in_a5():
    p, d = coverage_spiral(6)
    bs = greedy_cover_spiral(p, d)
    assert d.rect("C", 2).contains(bs.beacons[0])
    assert d.rect("A", 5).contains(bs.beacons[1])


def test_greedy_middle_beacons_in_their_rectangles():
    for r in (7, 10, 13, 16):
        p, d = coverage_spiral(r)
        bs = greedy_cover_spiral(p, d)
        k = len(bs)
        for i in range(2, k):
            assert d.rect("A", 3 * i - 1).contains(bs.beacons[i - 1]), (r, i)


def test_greedy_ray_scan_matches_the_edge_scan_oracle():
    """The contacts of a ray that the greedy placement tries, farthest
    first, are boundary_hits_scan's in reverse: from every vertex towards
    every other vertex, every rectangle centre of the decomposition and
    along the four axes, on coverage spirals r = 2..8 and two random
    polygons.  The oracle's first contact on each segment to a vertex is
    the cross-product oracle's."""
    axes = [Point(1, 0), Point(-1, 0), Point(0, 1), Point(0, -1)]
    polys = [coverage_spiral(r) for r in range(2, 9)] + [(random_rectilinear(n, n), None) for n in (12, 20)]
    rays = 0
    for p, d in polys:
        targets = list(p.vertices) + ([rect.center() for _, _, rect in d.rects] if d else [])
        for z in p.vertices:
            for ray in [b - z for b in targets if b != z] + axes:
                want = boundary_hits_scan(p, z, ray)
                assert _ray_contacts(p, z, ray) == [pt for _, pt, _, _ in reversed(want)], (p.vertices, z, ray)
                rays += 1
            for b in p.vertices:
                if b != z:
                    hits = boundary_hits_scan(p, z, b - z, 1)
                    assert (hits[0] if hits else None) == first_hit(p, z, b), (p.vertices, z, b)
    assert rays >= 4000


def test_greedy_requires_coverage_kind():
    p, d = uniform_spiral(6)
    with pytest.raises(NotCoverageSpiral):
        greedy_cover_spiral(p, d)


def test_greedy_covers_up_to_tie_vertices():
    p, d = coverage_spiral(9)
    bs = greedy_cover_spiral(p, d)
    samples = set(p.vertices)
    for e in p.edges:
        samples.add(midpoint(e.a, e.b))
    for _, _, rect in d.rects:
        samples.add(rect.center())
        samples.update(rect.corners())
    samples = [s for s in samples if p.contains(s) != "out"]
    for s in samples:
        if any(attracts(p, b, s) for b in bs):
            continue
        # The only admissible misses are exact ambiguous ties at vertices.
        assert p.vertex_index(s) is not None
        tie = any(
            (lambda path: not path.reached and path.dead_reason == DEAD_AMBIGUOUS
             and path.terminal == s)(attraction_path(p, s, b))
            for b in bs
        )
        assert tie, s


def test_routing_spiral_needs_r_at_least_3():
    with pytest.raises(ValueError):
        routing_spiral(2)


def test_routing_spiral_shapes():
    for r in (3, 4, 5, 7):
        p = routing_spiral(r)
        assert p.n == 2 * r + 4
        refl = {p.vertices[i] for i in p.reflex_indices}
        assert refl == set(p.vertices[1:r + 1])  # spine interior vertices


def test_routing_spiral_middle_vertex_is_two_way_dead():
    # A beacon at v2 is attracted neither to p nor to q: two descent
    # directions tie.
    p = routing_spiral(3)
    v2 = p.vertices[2]
    src = p.vertices[0]
    dst = p.vertices[4]
    for target in (src, dst):
        path = attraction_path(p, v2, target)
        assert not path.reached
        assert path.dead_reason == DEAD_AMBIGUOUS


def test_random_rectilinear_counts_and_validity():
    for seed in range(30):
        n = 4 + 2 * (seed % 12)
        p = random_rectilinear(n, seed)
        assert p.n == n
        assert p.r == (n - 4) // 2
        assert p.n == 2 * p.r + 4


def test_random_rectilinear_deterministic():
    a = random_rectilinear(20, 7)
    b = random_rectilinear(20, 7)
    assert a.vertices == b.vertices


def test_random_rectilinear_rejects_odd():
    with pytest.raises(GenerationFailed):
        random_rectilinear(7, 0)


def test_random_monotone_is_monotone():
    for seed in range(20):
        p = random_x_monotone(4 + 2 * (seed % 9), seed)
        assert p.monotonicity()["x_monotone"]


def test_uniform_spiral_scales():
    p, _ = uniform_spiral(40)
    assert p.n == 84
    xmin, ymin, xmax, ymax = p.bbox()
    assert xmax - xmin < 400  # coordinates grow linearly, not geometrically
