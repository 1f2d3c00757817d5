"""Attraction paths on the integer frame against the Fraction event
simulator, path by path: every segment's endpoints, mode and edge, the
outcome, the dead reason and the terminal, and attracts and is_dead_point
with them."""

import random
from fractions import Fraction

import pytest

from rectbeacon.attraction import SLIDE, _finish, _Pull, attraction_path, attracts, is_dead_point
from rectbeacon.errors import InternalCaseError
from rectbeacon.generators import random_rectilinear
from rectbeacon.geometry import Point, midpoint

import attraction_oracle
from test_acceptance import _interior_points
from test_cut_oracle import CORPUS, MAPPED


def _shown(path):
    return ([(s.a, s.b, s.mode, s.edge) for s in path.segments],
            path.outcome, path.dead_reason, path.terminal)


def _check(poly, p, b):
    """The path from p to b matches the oracle's; returns it."""
    want = attraction_oracle.attraction_path(poly, p, b)
    got = attraction_path(poly, p, b)
    assert _shown(got) == _shown(want), (poly.vertices, p, b)
    assert attracts(poly, b, p) == want.reached
    dead = attraction_oracle._begin(poly, p, b, poly.contains(p))[0] == "dead"
    assert is_dead_point(poly, p, b) == dead, (poly.vertices, p, b)
    return got


def _c09_triples(count):
    """The first count (polygon, start, beacon) triples of the c09 acceptance test."""
    rng = random.Random(99)
    triples = []
    while len(triples) < count:
        n = 4 + 2 * (len(triples) % 11)
        p = random_rectilinear(n, 100000 + len(triples))
        pts = _interior_points(p, rng, 6)
        if len(pts) < 2:
            continue
        for i in range(0, len(pts) - 1, 2):
            triples.append((p, pts[i], pts[i + 1]))
            if len(triples) >= count:
                break
    return triples


def test_c09_triples_match_fraction_simulator():
    reached = 0
    for p, s, b in _c09_triples(1000):
        reached += _check(p, s, b).reached
    assert 0 < reached < 1000


def _starts(p):
    """Every vertex, every edge midpoint and the points of a 5 x 5 grid
    inside the bounding box that lie inside p."""
    xmin, ymin, xmax, ymax = p.bbox()
    grid = [Point(xmin + (xmax - xmin) * Fraction(i, 6), ymin + (ymax - ymin) * Fraction(j, 6))
            for i in range(1, 6) for j in range(1, 6)]
    return list(p.vertices) + [midpoint(e.a, e.b) for e in p.edges] + [g for g in grid if p.contains(g) == "in"]


@pytest.mark.parametrize("polys", [CORPUS, MAPPED], ids=["integral", "mapped"])
def test_corpus_paths_towards_reflex_vertices_match_fraction_simulator(polys):
    """Towards every reflex vertex of the polygons with n <= 24 and towards
    the first one of the larger ones.  Edge midpoints whose first move is
    blocked start with a slide; contacts inside edges of the mapped
    polygons have weights other than 1."""
    blocked_starts = edge_contacts = 0
    for p in polys:
        mids = {midpoint(e.a, e.b) for e in p.edges}
        for i in p.reflex_indices if p.n <= 24 else p.reflex_indices[:1]:
            for q in _starts(p):
                path = _check(p, q, p.vertices[i])
                segs = path.segments
                blocked_starts += q in mids and bool(segs) and segs[0].mode == SLIDE
                edge_contacts += any(s.mode == SLIDE and p.vertex_index(s.a) is None
                                     and s.a not in mids for s in segs)
    assert blocked_starts > 100 and edge_contacts > 100


def test_finish_rejects_a_segment_that_does_not_shrink_the_distance():
    p = random_rectilinear(8, 1)
    v = p.vertices[0]
    pull = _Pull(p, v, p.vertices[p.reflex_indices[0]])
    x, y, w = pull.start
    # The same point again, with weight 2: no decrease.
    with pytest.raises(InternalCaseError):
        _finish(pull, [(x, y, w), (2 * x, 2 * y, 2)], [None], True, None)
    # The beacon itself, with weight 3.
    _finish(pull, [(x, y, w), (pull.bx * 3, pull.by * 3, 3)], [None], True, None)
