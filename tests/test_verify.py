from fractions import Fraction

import pytest

import itertools

from rectbeacon.attraction import attraction_path, attracts
from rectbeacon.errors import BudgetExceeded
from rectbeacon.generators import (
    coverage_spiral,
    greedy_cover_spiral,
    random_rectilinear,
    random_x_monotone,
    routing_spiral,
)
from rectbeacon.geometry import Point, midpoint
from rectbeacon.placement import route_beacons
from rectbeacon.polygon import CONVEX, validate
from rectbeacon.verify import (
    AttractionGraph,
    AttractionMemo,
    SamplePlan,
    build_samples,
    default_pairs,
    exhaust_necessity,
    necessity_candidates,
    verify_coverage,
    verify_routing,
)

import sample_oracle
from shapes import square, u_shape


def test_samples_deterministic_and_inside():
    p = u_shape()
    plan = SamplePlan(grid=12, seed=3, jitter=9)
    s1 = build_samples(p, plan)
    s2 = build_samples(p, plan)
    assert s1 == s2
    assert all(p.contains(q) != "out" for q in s1)
    assert set(p.vertices) <= set(s1)


def test_verify_coverage_square_any_beacon():
    p = square()
    rep = verify_coverage(p, [Point(1, 1)], SamplePlan(grid=8))
    assert rep.passed
    assert rep.stats["uncovered"] == 0


def test_verify_coverage_finds_witness():
    p = u_shape()
    # A beacon deep in the right tower cannot attract the left tower.
    rep = verify_coverage(p, [Point(5, 4)], SamplePlan(grid=8))
    assert not rep.passed
    assert rep.witnesses
    w = rep.witnesses[0]
    assert w["outcomes"][0]["outcome"] == "dead"


def test_witnesses_replay_exactly():
    p = u_shape()
    rep = verify_coverage(p, [Point(5, 4)], SamplePlan(grid=8))
    w = rep.witnesses[0]
    s = Point(Fraction(w["point"][0]), Fraction(w["point"][1]))
    b = Point(Fraction(w["outcomes"][0]["beacon"][0]), Fraction(w["outcomes"][0]["beacon"][1]))
    path = attraction_path(p, s, b)
    assert not path.reached
    assert [str(path.terminal.x), str(path.terminal.y)] == w["outcomes"][0]["terminal"]


def test_greedy_prefix_fails_near_v4_on_p7():
    p, d = coverage_spiral(7)
    bs = greedy_cover_spiral(p, d)
    prefix = bs.beacons[:2]
    rep = verify_coverage(p, prefix, SamplePlan(grid=24), witness_limit=100)
    assert not rep.passed
    v4 = d.spine[4]
    hits = []
    for w in rep.witnesses:
        q = Point(Fraction(w["point"][0]), Fraction(w["point"][1]))
        if max(abs(q.x - v4.x), abs(q.y - v4.y)) < 1:
            hits.append(q)
    assert hits, [w["point"] for w in rep.witnesses]


def test_verify_routing_monotone_no_beacons():
    p = validate([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
    rep = verify_routing(p, [], pair_count=40, seed=5)
    assert rep.passed
    assert rep.stats["max_chain"] == 0


def test_verify_routing_u_shape_fail_then_pass():
    p = u_shape()
    pair = [(Point(5, 3), Point(1, 3))]
    assert not verify_routing(p, [], pairs=pair).passed
    bs = route_beacons(p)
    assert verify_routing(p, bs.beacons, pairs=pair).passed


def test_default_pairs_cover_vertices():
    p = square()
    pairs = default_pairs(p, count=10, seed=1)
    vp = [(u, v) for u in p.vertices for v in p.vertices if u != v]
    assert set(vp) <= set(pairs)


def test_exhaust_necessity_square_counterexample():
    res, payload = exhaust_necessity(square(), 1, "cover", plan=SamplePlan(grid=6))
    assert res == "counterexample"
    assert len(payload) == 1


def test_exhaust_necessity_routing_spiral():
    p = routing_spiral(3)
    src, dst = p.vertices[0], p.vertices[4]
    res, tried = exhaust_necessity(p, 1, "route",
                                   candidates=necessity_candidates(p, grid=5),
                                   pairs=[(src, dst), (dst, src)])
    assert res == "pass"
    assert tried > 0


def test_exhaust_monotone_in_k():
    p, d = coverage_spiral(5)
    cands = [p.vertices[i] for i in p.reflex_indices]
    for _, _, rect in d.rects:
        cands.extend(c for c in rect.corners() if p.contains(c) != "out")
    cands = sorted(set(cands), key=lambda q: q.key())
    res1, _ = exhaust_necessity(p, 1, "cover", candidates=cands, plan=SamplePlan(grid=10))
    assert res1 == "pass"  # one beacon cannot guard the r=5 spiral


def test_unknown_necessity_mode_is_rejected():
    with pytest.raises(ValueError):
        exhaust_necessity(random_rectilinear(12, 2), 1, "routing")


def test_verifier_inputs_match_fraction_oracle():
    """build_samples, necessity_candidates and default_pairs, built on the
    ints, against the Fraction oracle, list for list: the c04 and c05
    plans on their corpora, spirals r = 1..15 at grid 40, and the default
    pairs and candidates of random polygons of route_fuzz's sizes."""
    cases = [(random_rectilinear(4 + 2 * (seed % 19), seed * 7 + 3), SamplePlan(grid=14, jitter=10, seed=seed))
             for seed in range(200)]
    cases += [(random_x_monotone(4 + 2 * (seed % 14), seed * 3 + 5), SamplePlan(grid=14, jitter=6, seed=seed))
              for seed in range(100)]
    cases += [(coverage_spiral(r)[0], SamplePlan(grid=40)) for r in range(1, 16)]
    for p, plan in cases:
        assert build_samples(p, plan) == sample_oracle.build_samples(p, plan), (p.vertices, plan)
    pairs = 0
    for seed in range(60):
        p = random_rectilinear(8 + 2 * (seed % 12), seed)
        got = default_pairs(p, 100, seed)
        assert got == sample_oracle.default_pairs(p, 100, seed), p.vertices
        pairs += len(got) - p.n * (p.n - 1)
        extra = [Point(Fraction(x), Fraction(y, 3)) for x, y in ((seed, seed), (1, 7), (2, -3))]
        for grid, more in ((6, ()), (5, extra)):
            got = necessity_candidates(p, grid, more)
            assert got == sample_oracle.necessity_candidates(p, grid, more), (p.vertices, grid)
    assert pairs >= 60 * 90


def test_budget_guard():
    p = random_rectilinear(24, 3)
    with pytest.raises(BudgetExceeded):
        exhaust_necessity(p, 4, "cover", budget=1000)


def _fresh_necessity(poly, k, mode, cands, pairs, samples):
    """exhaust_necessity with nothing shared between subsets: attracts
    straight for coverage, a fresh AttractionGraph per subset for routing."""
    tried = 0
    for subset in itertools.combinations(cands, k):
        tried += 1
        if mode == "cover":
            ok = all(any(attracts(poly, b, s) for b in subset) for s in samples)
        else:
            graph = AttractionGraph(poly, subset)
            ok = all(graph.route(graph.memo.id(s), graph.memo.id(t)) is not None for s, t in pairs)
        if ok:
            return ("counterexample", list(subset))
    return ("pass", tried)


def test_shared_memo_matches_fresh_graph_per_subset():
    results = set()
    for p in (coverage_spiral(3)[0], random_rectilinear(12, 2)):
        plan, pairs = SamplePlan(grid=6), default_pairs(p, 8)
        samples = build_samples(p, plan)
        convex = [v for v, c in zip(p.vertices, p.classes) if c == CONVEX]
        for cands in (necessity_candidates(p, grid=4)[::-1], convex):
            for mode in ("cover", "route"):
                for k in (1, 2):
                    got = exhaust_necessity(p, k, mode, candidates=cands, pairs=pairs, plan=plan)
                    assert got == _fresh_necessity(p, k, mode, cands, pairs, samples), (p, mode, k)
                    results.add(got[0])
    assert results == {"pass", "counterexample"}


def _chain(poly, beacons, s, t):
    """The routing chain length from s to t by breadth-first search on attracts."""
    if attracts(poly, t, s):
        return 0
    frontier = {b for b in beacons if attracts(poly, b, s)}
    seen, depth = set(frontier), 1
    while frontier:
        if any(attracts(poly, t, b) for b in frontier):
            return depth
        frontier = {c for c in beacons if c not in seen and any(c != b and attracts(poly, c, b) for b in frontier)}
        seen |= frontier
        depth += 1
    return None


def test_route_between_points_that_are_not_beacons_matches_attracts_chains():
    chains = set()
    for p in (coverage_spiral(3)[0], random_rectilinear(12, 2), random_rectilinear(16, 4)):
        placed = route_beacons(p).beacons
        pairs = [(s, t) for s, t in default_pairs(p, 30, seed=1) if s not in placed]
        memo = AttractionMemo(p)
        # A memo already holding the ids of other points and beacons.
        AttractionGraph(p, [v for v in p.vertices if v not in placed][:3], memo).route(
            memo.id(pairs[0][0]), memo.id(pairs[0][1]))
        for beacons in (placed, placed[:1]):
            want = [_chain(p, beacons, s, t) for s, t in pairs]
            for graph in (AttractionGraph(p, beacons), AttractionGraph(p, beacons, memo)):
                ids = [(graph.memo.id(s), graph.memo.id(t)) for s, t in pairs]
                assert [graph.route(s, t) for s, t in ids] == want
            chains.update(want)
    assert {None, 0, 1, 2} <= chains


def _thirds(poly, count):
    """Up to count interior points off every sample lattice: a third of
    min(1, least gap between vertex levels) diagonally off the reflex
    vertices, or off vertex 0 when there are none."""
    levels = [sorted({getattr(v, axis) for v in poly.vertices}) for axis in "xy"]
    third = min(1, *(b - a for c in levels for a, b in zip(c, c[1:]))) / Fraction(3)
    found = []
    for i in poly.reflex_indices or [0]:
        v = poly.vertices[i]
        found += [q for q in (Point(v.x + sx * third, v.y + sy * third) for sx in (1, -1) for sy in (1, -1))
                  if poly.contains(q) == "in"][:1]
    return found[:count]


def _plain_coverage(poly, beacons, plan):
    """verify_coverage's report by plain attracts and attraction_path calls."""
    witnesses, uncovered = [], 0
    samples = build_samples(poly, plan)
    for s in samples:
        if any(attracts(poly, b, s) for b in beacons):
            continue
        uncovered += 1
        if len(witnesses) < 16:
            paths = [attraction_path(poly, s, b) for b in beacons]
            witnesses.append({"point": [str(s.x), str(s.y)], "outcomes": [
                {"beacon": [str(b.x), str(b.y)], "outcome": p.outcome, "dead_reason": p.dead_reason,
                 "terminal": [str(p.terminal.x), str(p.terminal.y)]} for b, p in zip(beacons, paths)]})
    stats = {"samples": len(samples), "uncovered": uncovered, "beacons": len(beacons), "plan": repr(plan)}
    return {"verdict": "fail" if uncovered else "pass", "witnesses": witnesses, "stats": stats}


def _plain_routing(poly, beacons, pairs):
    """verify_routing's report by breadth-first search on plain attracts."""
    known = {}

    def att(b, p):
        if (b, p) not in known:
            known[(b, p)] = attracts(poly, b, p)
        return known[(b, p)]

    witnesses, failed, max_chain = [], 0, 0
    for s, t in pairs:
        chain = None
        if att(t, s):
            chain = 0
        else:
            frontier = [b for b in beacons if att(b, s)]
            seen, depth = set(frontier), 1
            while frontier and chain is None:
                if any(att(t, b) for b in frontier):
                    chain = depth
                frontier = [c for c in beacons if c not in seen and any(c != b and att(c, b) for b in frontier)]
                seen.update(frontier)
                depth += 1
        if chain is None:
            failed += 1
            if len(witnesses) < 16:
                witnesses.append({"from": [str(s.x), str(s.y)], "to": [str(t.x), str(t.y)]})
        else:
            max_chain = max(max_chain, chain)
    stats = {"pairs": len(pairs), "unroutable": failed, "beacons": len(beacons), "max_chain": max_chain}
    return {"verdict": "fail" if failed else "pass", "witnesses": witnesses, "stats": stats}


def test_frames_match_fresh_paths():
    """The memo's frames and located int starts against one-off attracts
    calls, for every sample of SamplePlan(grid=8, jitter=4) and every
    default pair point, towards beacons at reflex vertices, at edge
    midpoints and at interior points with denominator 3; and both verifier
    reports, witnesses included, against plain attracts loops, for the
    placed beacon sets and for failing ones."""
    from rectbeacon.placement import cover
    from rectbeacon.transforms import TRANSFORMS
    from rectbeacon.verify import _default_pair_ids, _sample_ids

    polys = [random_rectilinear(n, seed) for n, seed in ((8, 1), (12, 2), (16, 4), (20, 7))]
    polys += [coverage_spiral(r)[0] for r in (2, 3)]
    polys += [TRANSFORMS["mirror_x"].polygon(p) for p in polys]
    plan = SamplePlan(grid=8, seed=3, jitter=4)
    compared = witnessed = 0
    seen_verdicts = set()
    for p in polys:
        reflex = [p.vertices[i] for i in p.reflex_indices]
        mids = [midpoint(e.a, e.b) for e in p.edges[:3]]
        thirds = _thirds(p, 2)
        assert thirds and all(c.denominator % 3 == 0 for q in thirds for c in (q.x, q.y))
        beacons = reflex[:3] + mids + thirds
        memo = AttractionMemo(p)
        bids = [memo.id(b) for b in beacons]
        sids = _sample_ids(memo, plan)
        pairs = _default_pair_ids(memo, 16, 5)
        pids = sorted({i for pair in pairs for i in pair})
        # A pair point as a beacon, and every point as a source.
        for b, bid in list(zip(beacons, bids)) + [(memo.point(i), i) for i in pids[::3]]:
            for sid in sids + pids:
                assert memo.attracts(bid, sid) == attracts(p, b, memo.point(sid)), (p.vertices, b, sid)
                compared += 1
        for bs in (cover(p).beacons, route_beacons(p).beacons, reflex[:1] + thirds[:1], thirds, mids[:2]):
            got = verify_coverage(p, bs, plan).as_dict()
            assert got == _plain_coverage(p, bs, plan), (p.vertices, bs)
            rep = verify_routing(p, bs, pair_count=16, seed=5).as_dict()
            assert rep == _plain_routing(p, bs, default_pairs(p, 16, 5)), (p.vertices, bs)
            seen_verdicts.update((got["verdict"], rep["verdict"]))
            witnessed += bool(got["witnesses"]) + bool(rep["witnesses"])
    assert compared > 20000 and seen_verdicts == {"pass", "fail"} and witnessed > 20


def test_locate_calls_per_path(monkeypatch):
    """locate_scaled runs at most 1.1 times per simulated path over cover +
    verify_coverage (c04's plan) and route_beacons + verify_routing(100) on
    random polygons n = 12..44: the verifiers locate each beacon once and
    hand in their samples and pair points located."""
    import rectbeacon.attraction as attraction
    import rectbeacon.verify as verify
    from rectbeacon.placement import cover
    from rectbeacon.polygon import RectPolygon

    counts = {"locate": 0, "paths": 0}
    locate, simulate = RectPolygon.locate_scaled, attraction._simulate

    def counted_locate(self, *args):
        counts["locate"] += 1
        return locate(self, *args)

    def counted_simulate(*args):
        counts["paths"] += 1
        return simulate(*args)

    monkeypatch.setattr(RectPolygon, "locate_scaled", counted_locate)
    monkeypatch.setattr(attraction, "_simulate", counted_simulate)
    monkeypatch.setattr(verify, "_simulate", counted_simulate)
    for n in range(12, 45, 2):
        p = random_rectilinear(n, 1000 * n)
        assert verify_coverage(p, cover(p).beacons, SamplePlan(grid=14, seed=n, jitter=10)).passed
        assert verify_routing(p, route_beacons(p).beacons, pair_count=100, seed=n).passed
    assert counts["paths"] > 10000
    assert counts["locate"] <= 1.1 * counts["paths"], counts
