import math
from fractions import Fraction

import pytest

from rectbeacon.attraction import (
    DEAD_AMBIGUOUS,
    DEAD_FOOT,
    attracts,
    attraction_path,
    is_dead_point,
)
from rectbeacon.errors import PointOutsidePolygon
from rectbeacon.generators import comb, coverage_spiral, random_rectilinear
from rectbeacon.geometry import Point, midpoint
from rectbeacon.polygon import validate

from descent_oracle import descend
from shapes import l_shape, square, u_shape


def test_visible_pair_single_free_segment():
    p = validate([(0, 0), (4, 0), (4, 2), (0, 2)])
    path = attraction_path(p, Point(1, 1), Point(3, 1))
    assert path.reached
    assert len(path.segments) == 1
    assert path.segments[0].mode == "free"


def test_zero_length_path():
    p = square()
    path = attraction_path(p, Point(Fraction(1, 2), Fraction(1, 2)), Point(Fraction(1, 2), Fraction(1, 2)))
    assert path.reached
    assert path.segments == []
    assert attracts(p, Point(Fraction(1, 2), Fraction(1, 2)), Point(Fraction(1, 2), Fraction(1, 2)))


def test_l_shape_bend_path():
    p = l_shape()
    path = attraction_path(p, Point(Fraction(1, 2), Fraction(3, 2)), Point(3, 3))
    assert path.reached
    pts = path.points()
    assert pts[1] == Point(Fraction(4, 3), 2)
    assert pts[2] == Point(2, 2)
    assert pts[3] == Point(3, 3)
    assert path.segments[0].mode == "free"
    assert path.segments[1].mode == "slide"
    assert path.segments[2].mode == "free"


def test_l_shape_bend_matches_numeric_oracle():
    p = l_shape()
    verdict, end = descend(p, Point(Fraction(1, 2), Fraction(3, 2)), Point(3, 3))
    assert verdict == "reached"


def test_u_shape_dead_point_at_foot():
    p = u_shape()
    path = attraction_path(p, Point(5, 3), Point(1, 3))
    assert not path.reached
    assert path.dead_reason == DEAD_FOOT
    assert path.terminal == Point(4, 3)
    verdict, end = descend(p, Point(5, 3), Point(1, 3))
    assert verdict == "dead"
    assert math.hypot(end[0] - 4, end[1] - 3) < 1e-2


def test_u_shape_kernel_point_attracts_far_corner():
    p = u_shape()
    # (2,2) lies in the kernel; the pull slides down the tower wall and west.
    assert attracts(p, Point(2, 2), Point(5, 3))
    path = attraction_path(p, Point(5, 3), Point(2, 2))
    assert path.reached
    assert Point(4, 2) in path.points()


def test_attracts_self():
    p = u_shape()
    assert attracts(p, Point(1, 1), Point(1, 1))


def test_attracts_rejects_outside():
    p = square()
    with pytest.raises(PointOutsidePolygon):
        attracts(p, Point(5, 5), Point(0, 0))


def test_is_dead_point_u_shape():
    p = u_shape()
    assert is_dead_point(p, Point(4, 3), Point(1, 3))
    assert not is_dead_point(p, Point(4, 3), Point(5, 3))
    assert not is_dead_point(p, Point(3, 1), Point(1, 1))


def test_is_dead_point_interior_never():
    p = u_shape()
    assert not is_dead_point(p, Point(1, 1), Point(5, 1))


def test_ambiguous_reflex_vertex_is_dead():
    # At a reflex vertex with straight motion blocked, both edges tie.
    p = l_shape()
    # Beacon strictly inside the exterior quadrant's opposite cone: from (2,2)
    # the NW quadrant is exterior; a beacon at (1,1) pulls along the diagonal,
    # free motion allowed (SW direction). Construct a real tie instead:
    # beacon at (1,3) is outside P, so use the U-shape notch corner.
    u = u_shape()
    # From (4,2), beacon at (1,3): d = (-3, 1). Edge dirs at (4,2): north
    # (wall up) and west (notch edge). d.north = 1 > 0, d.west = 3 > 0: tie.
    assert is_dead_point(u, Point(4, 2), Point(1, 3))
    path = attraction_path(u, Point(4, 2), Point(1, 3))
    assert not path.reached
    assert path.dead_reason == DEAD_AMBIGUOUS
    assert path.terminal == Point(4, 2)


def test_distance_monotone_along_path():
    p = u_shape()
    b = Point(1, 1)
    path = attraction_path(p, Point(5, 3), b)
    pts = path.points()
    d = [pt.dist2(b) for pt in pts]
    assert all(d[i] > d[i + 1] for i in range(len(d) - 1))


def test_visibility_implies_attraction():
    p = l_shape()
    assert attracts(p, Point(3, 3), Point(3, 1))  # vertical segment inside


def test_free_segment_through_grazed_vertex():
    # Ray from (1,1) to (3,3) passes exactly through reflex vertex (2,2).
    p = l_shape()
    path = attraction_path(p, Point(1, 1), Point(3, 3))
    assert path.reached
    assert Point(2, 2) in path.points()


def test_bend_edges_block_beacon_halfplane():
    p = u_shape()
    path = attraction_path(p, Point(5, 3), Point(2, 2))
    for seg in path.segments:
        if seg.mode == "slide":
            e = p.edges[seg.edge]
            # The beacon lies strictly outside the edge's closed half-plane.
            assert e.sense * ((path.beacon.y if e.orientation == "H" else path.beacon.x) - e.level) < 0
            assert e.kind != "convex" or not path.reached


def test_is_dead_point_is_a_path_dead_at_its_start():
    """On vertices, edge midpoints and reflex-vertex offsets of fuzz polygons,
    spirals and combs, towards every vertex and edge midpoint as beacon, q is
    a dead point exactly when the path from q is dead without a segment."""
    polys = [random_rectilinear(n, seed) for n in (8, 16, 24, 32) for seed in range(3)]
    polys += [coverage_spiral(r)[0] for r in (2, 4, 6)] + [comb(k) for k in (2, 4)]
    pairs = dead = 0
    for p in polys:
        boundary = list(p.vertices) + [midpoint(e.a, e.b) for e in p.edges]
        near = [v + Point(dx, dy) for v in (p.vertices[i] for i in p.reflex_indices)
                for dx in (Fraction(-1, 4), Fraction(1, 4)) for dy in (Fraction(-1, 4), Fraction(1, 4))]
        for q in boundary + [w for w in near if p.contains(w) != "out"]:
            for b in boundary:
                path = attraction_path(p, q, b)
                want = not path.reached and not path.segments
                assert is_dead_point(p, q, b) == want, (p.vertices, q, b)
                pairs += 1
                dead += want
    assert pairs >= 20000 and dead >= 1000
