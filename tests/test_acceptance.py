"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Budgets and tolerances are pinned here; nothing is deferred.
"""

import random
import time
from fractions import Fraction

from rectbeacon.attraction import attraction_path
from rectbeacon.generators import (
    coverage_spiral,
    greedy_cover_spiral,
    random_rectilinear,
    random_x_monotone,
    routing_spiral,
    uniform_spiral,
)
from rectbeacon.geometry import Point, midpoint
from rectbeacon.kernel import kernel, kernel_oracle
from rectbeacon.placement import cover, cover_monotone, route_beacons
from rectbeacon.polygon import iter_normal_cuts, split, validate
from rectbeacon.regions import regions_equal
from rectbeacon.verify import (
    SamplePlan,
    exhaust_necessity,
    necessity_candidates,
    verify_coverage,
    verify_routing,
)

from descent_oracle import descend
from shapes import comb


def ceil3(x):
    return -(-x // 3)


def _interior_points(poly, rng, count):
    """Random interior points on a half-integer grid (clearance-friendly)."""
    xmin, ymin, xmax, ymax = poly.bbox()
    pts = []
    guard = 0
    while len(pts) < count and guard < count * 300:
        guard += 1
        x = Fraction(rng.randrange(int(xmin) * 2, int(xmax) * 2 + 1), 2)
        y = Fraction(rng.randrange(int(ymin) * 2, int(ymax) * 2 + 1), 2)
        q = Point(x, y)
        if poly.contains(q) == "in":
            pts.append(q)
    return pts


def test_c01_kernel_equivalence():
    t0 = time.time()
    checked = 0
    for seed in range(500):
        n = 4 + 2 * (seed % 29)  # n up to 60
        p = random_rectilinear(n, seed * 13 + 1)
        kf = kernel(p)
        ko = kernel_oracle(p)
        assert regions_equal(kf.pieces, ko.pieces), (seed, n)
        assert kf.is_empty == ko.is_empty
        if kf.is_empty:
            assert kf.degenerate == ko.degenerate
        checked += 1
    for r in range(0, 21):
        p, _ = coverage_spiral(r)
        assert regions_equal(kernel(p).pieces, kernel_oracle(p).pieces), ("cov", r)
        checked += 1
        if r >= 3:
            q = routing_spiral(r)
            assert regions_equal(kernel(q).pieces, kernel_oracle(q).pieces), ("rt", r)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"kernel equivalence took {elapsed:.1f}s"
    print(f"\nACCEPTANCE #1 kernel equivalence: PASS "
          f"({checked} polygons, 0 mismatches, {elapsed:.1f}s < 60s)")


def test_c02_kernel_performance():
    p, _ = uniform_spiral(998)
    assert p.n == 2000
    t_kernel = []
    t_oracle = []
    for _ in range(5):
        t0 = time.perf_counter()
        kernel(p)
        t_kernel.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        kernel_oracle(p)
        t_oracle.append(time.perf_counter() - t0)
    med_k = sorted(t_kernel)[2]
    med_o = sorted(t_oracle)[2]
    ratio = med_o / med_k
    assert ratio >= 20, f"speedup only {ratio:.1f}x"
    print(f"\nACCEPTANCE #2 kernel performance: PASS "
          f"(n=2000 medians: kernel {med_k * 1e3:.2f}ms, oracle {med_o:.2f}s, {ratio:.0f}x >= 20x)")


def test_c02_comb_kernel_performance():
    """c02's gate on a polygon whose kernel is reached by clipping."""
    p = comb(250)
    assert p.n == 1000
    t_kernel = []
    t_oracle = []
    for _ in range(5):
        t0 = time.perf_counter()
        kf = kernel(p)
        t_kernel.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        ko = kernel_oracle(p)
        t_oracle.append(time.perf_counter() - t0)
    assert not kf.is_empty and regions_equal(kf.pieces, ko.pieces)
    med_k = sorted(t_kernel)[2]
    med_o = sorted(t_oracle)[2]
    ratio = med_o / med_k
    assert ratio >= 20, f"speedup only {ratio:.1f}x"
    print(f"\nACCEPTANCE #2 comb kernel performance: PASS "
          f"(n=1000 comb medians: kernel {med_k * 1e3:.2f}ms, oracle {med_o:.2f}s, {ratio:.0f}x >= 20x)")


def test_c03_coverage_tightness_on_spirals():
    t0 = time.time()
    for r in range(1, 16):
        p, d = coverage_spiral(r)
        bs = cover(p)
        assert len(bs) == ceil3(r), (r, len(bs))
        rep = verify_coverage(p, bs.beacons, SamplePlan(grid=200))
        assert rep.passed, (r, rep.witnesses[:1])
    p7, d7 = coverage_spiral(7)
    prefix = greedy_cover_spiral(p7, d7).beacons[:2]
    rep = verify_coverage(p7, prefix, SamplePlan(grid=200), witness_limit=400)
    assert not rep.passed
    v4 = d7.spine[4]
    near_v4 = [w for w in rep.witnesses
               if max(abs(Fraction(w["point"][0]) - v4.x),
                      abs(Fraction(w["point"][1]) - v4.y)) < 1]
    assert near_v4, "no uncovered witness near v4"
    elapsed = time.time() - t0
    assert elapsed < 120, f"spiral coverage took {elapsed:.1f}s"
    print(f"\nACCEPTANCE #3 coverage tightness on spirals: PASS "
          f"(r=1..15 all exactly ceil(r/3), 2-beacon prefix fails near v4, {elapsed:.1f}s < 120s)")


def test_c04_coverage_upper_bound_fuzz():
    t0 = time.time()
    for seed in range(200):
        n = 4 + 2 * (seed % 19)  # n up to 40
        p = random_rectilinear(n, seed * 7 + 3)
        bs = cover(p)
        assert len(bs) <= max(1, ceil3(p.r)), (seed, len(bs), p.r)
        if p.r >= 1:
            refl = {p.vertices[i] for i in p.reflex_indices}
            assert all(b in refl for b in bs.beacons), seed
        rep = verify_coverage(p, bs.beacons, SamplePlan(grid=14, jitter=10, seed=seed))
        assert rep.passed, (seed, rep.witnesses[:1])
    print(f"\nACCEPTANCE #4 coverage upper bound (200 fuzz, n<=40): PASS "
          f"({time.time() - t0:.1f}s; sampling-based check, density grid=14 + boosts + jitter)")


def test_c05_monotone_coverage():
    t0 = time.time()
    for seed in range(100):
        n = 4 + 2 * (seed % 14)
        p = random_x_monotone(n, seed * 3 + 5)
        bs = cover_monotone(p)
        assert len(bs) <= p.r // 4 + 1, (seed, len(bs), p.r)
        rep = verify_coverage(p, bs.beacons, SamplePlan(grid=14, jitter=6, seed=seed))
        assert rep.passed, (seed, rep.witnesses[:1])
    print(f"\nACCEPTANCE #5 monotone coverage (100 fuzz): PASS ({time.time() - t0:.1f}s)")


def test_c06_greedy_placement_rectangles():
    for r in range(4, 31):
        p, d = coverage_spiral(r)
        bs = greedy_cover_spiral(p, d)
        k = len(bs)
        assert k == ceil3(r)
        for i in range(2, k):
            box = d.rect("A", 3 * i - 1)
            assert box.contains(bs.beacons[i - 1]), (r, i)
    print("\nACCEPTANCE #6 greedy placement rectangles (r=4..30, exact containment): PASS")


def test_c07_routing_upper_bound_fuzz():
    t0 = time.time()
    zero_mono = 0
    for seed in range(200):
        n = 4 + 2 * (seed % 15)  # n up to 32
        p = random_rectilinear(n, seed * 11 + 17)
        bs = route_beacons(p)
        assert len(bs) <= (3 * p.r) // 4, (seed, len(bs), p.r)
        if p.is_xy_monotone():
            assert len(bs) == 0
            zero_mono += 1
        rep = verify_routing(p, bs.beacons, pair_count=100, seed=seed)
        assert rep.passed, (seed, rep.stats)
        assert rep.stats["max_chain"] <= len(bs) + 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"routing fuzz took {elapsed:.1f}s"
    print(f"\nACCEPTANCE #7 routing upper bound (200 fuzz, n<=32): PASS "
          f"({elapsed:.1f}s < 300s; {zero_mono} xy-monotone with 0 beacons)")


def test_c08_routing_lower_bound_necessity():
    t0 = time.time()
    for r in (3, 4, 5):
        p = routing_spiral(r)
        src, dst = p.vertices[0], p.vertices[r + 1]
        k = -(-r // 2) - 1
        res, tried = exhaust_necessity(
            p, k, "route",
            candidates=necessity_candidates(p, grid=6),
            pairs=[(src, dst), (dst, src)],
        )
        assert res == "pass", (r, res)
    print(f"\nACCEPTANCE #8 routing lower-bound corroboration: PASS "
          f"(r in 3..5, k=ceil(r/2)-1 all fail at grid resolution; discretized check, "
          f"{time.time() - t0:.1f}s)")


def _segment_inside(poly, a, b):
    d = b - a
    for e in poly.edges:
        ev = e.b - e.a
        denom = d.cross(ev)
        if denom == 0:
            continue
        w = e.a - a
        t = w.cross(ev) / denom
        s = w.cross(d) / denom
        if 0 < t < 1 and 0 < s < 1:
            return False  # proper crossing
    return poly.contains(midpoint(a, b)) != "out"


def test_c09_attraction_model_properties():
    t0 = time.time()
    rng = random.Random(99)
    triples = 0
    ties = 0
    disagreements = []
    while triples < 10000:
        n = 4 + 2 * (triples % 11)  # n up to 24
        p = random_rectilinear(n, 100000 + triples)
        pts = _interior_points(p, rng, 6)
        if len(pts) < 2:
            continue
        for i in range(0, len(pts) - 1, 2):
            s, b = pts[i], pts[i + 1]
            path = attraction_path(p, s, b)
            # distance strictly decreases along the polyline
            seq = [q.dist2(b) for q in path.points()]
            assert all(seq[j] > seq[j + 1] for j in range(len(seq) - 1))
            for seg in path.segments:
                if seg.mode == "slide":
                    e = p.edges[seg.edge]
                    assert e.sense * ((b.y if e.orientation == "H" else b.x) - e.level) < 0, \
                        "bend on an edge containing the beacon"
                    if path.reached:
                        assert e.kind != "convex", "reached path bent on a convex edge"
            if _segment_inside(p, s, b):
                assert path.reached, "visible pair not attracted"
            verdict, _end = descend(p, s, b)
            tie = any(abs(float(path.terminal.x) - float(v.x)) < 1e-3
                      and abs(float(path.terminal.y) - float(v.y)) < 1e-3
                      for v in p.vertices)
            if tie:
                ties += 1
            elif (verdict == "reached") != path.reached:
                disagreements.append((n, s, b, path.outcome, verdict))
            triples += 1
            if triples >= 10000:
                break
    assert not disagreements, disagreements[:5]
    print(f"\nACCEPTANCE #9 attraction model properties: PASS "
          f"(10000 triples, 100% oracle agreement outside the 1e-3 vertex tie zone; "
          f"{ties} ties excluded and logged, {time.time() - t0:.1f}s)")


def test_c10_structural_identities():
    t0 = time.time()
    rng = random.Random(2718)
    cuts_checked = 0
    polys = 0
    while cuts_checked < 1000:
        n = 4 + 2 * (polys % 14)
        p = random_rectilinear(n, 31337 + polys)
        polys += 1
        assert p.n == 2 * p.r + 4
        classes = [*iter_normal_cuts(p, "H"), *iter_normal_cuts(p, "V")]
        if not classes:
            continue
        rng.shuffle(classes)
        for chord, _ in classes[:4]:
            minus, plus = split(p, chord)
            assert minus.area() + plus.area() == p.area()
            assert minus.n == 2 * minus.r + 4
            assert plus.n == 2 * plus.r + 4
            # both parts re-validate from scratch as rectilinear polygons
            validate(list(minus.vertices), check_general_position=False)
            validate(list(plus.vertices), check_general_position=False)
            cuts_checked += 1
            if cuts_checked >= 1000:
                break
    print(f"\nACCEPTANCE #10 structural identities: PASS "
          f"(n=2r+4 on {polys} polygons, {cuts_checked} exact area-conserving splits, "
          f"{time.time() - t0:.1f}s)")
