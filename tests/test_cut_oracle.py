"""Prefix counts and pocket summaries against the chain-walk and build oracles."""

from rectbeacon.errors import NotAChord
from rectbeacon.generators import comb, coverage_spiral, random_rectilinear, uniform_spiral
from rectbeacon.placement import _pocket_wraps, pocket_summary
from rectbeacon.polygon import Cut, count_reflex_below, iter_normal_cuts, pocket, reflex_points_below
from rectbeacon.transforms import TRANSFORMS

import cut_oracle


def _corpus():
    """Fuzz polygons, coverage and uniform spirals and combs, each also mirrored."""
    polys = [random_rectilinear(n, seed) for n in range(8, 90, 8) for seed in range(3)]
    polys += [coverage_spiral(r)[0] for r in range(1, 19)]
    polys += [uniform_spiral(r)[0] for r in range(1, 19)]
    polys += [comb(k) for k in range(1, 16)]
    return polys + [TRANSFORMS["mirror_x"].polygon(p) for p in polys]


CORPUS = _corpus()


def test_normal_cut_classes_match_chain_walk():
    classes = 0
    for p in CORPUS:
        for o in ("H", "V"):
            got = iter_normal_cuts(p, o)
            assert [(nc.level, nc.lo, nc.hi, nc.r_minus) for nc in got] \
                == cut_oracle.normal_cuts(p, o), (p.vertices, o)
            for nc in got:
                a, b = nc.cut._chord.a, nc.cut._chord.b
                assert (nc.cut._chord.lo, nc.cut._chord.hi) == (nc.lo, nc.hi)
                assert p.chain_between(a, b) == cut_oracle.chain_between(p, a, b)
                assert p.chain_between(b, a) == cut_oracle.chain_between(p, b, a)
            classes += len(got)
    assert classes >= 10000


def _outcome(fn, p, cut):
    try:
        return fn(p, cut)
    except NotAChord:
        return "NotAChord"


def test_reflex_below_at_vertex_cuts_matches_chain_walk():
    """Cuts through a reflex vertex end there, symbolic ones inside two edges."""
    cuts = 0
    for p in CORPUS:
        for i in p.reflex_indices:
            for o, side in [(o, side) for o in "HV" for side in (None, "before", "after")]:
                cut = Cut(i, o, side)  # materialized once, by the first call
                want = _outcome(cut_oracle.reflex_points_below, p, cut)
                assert _outcome(reflex_points_below, p, cut) == want, (p.vertices, i, o, side)
                got = _outcome(count_reflex_below, p, cut)
                assert got == (want if want == "NotAChord" else len(want)), (p.vertices, i, o, side)
                cuts += want != "NotAChord"
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
                assert _pocket_wraps(p, e.index, vi) == cut_oracle.pocket_wraps(p, e.index, vi)
                pockets += 1
    assert pockets >= 2000
