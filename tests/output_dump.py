"""Print the program's outputs on a fixed corpus, one fact per line.

    python3 tests/output_dump.py > outputs.txt

It imports rectbeacon from the src/ directory of the checkout it sits in,
so running it in two checkouts and comparing the files with one diff shows
whether a change keeps every output below byte-identical.

The corpus is random polygons n = 8..88 (ten seeds each), coverage spirals
r = 1..24 and combs k = 1..19, each also mirrored, and the witnesses of
cover's case (b), CASE_B_I and CASE_B_III of shapes.py, in all eight
presentations.  For every polygon it
prints the kernel, clip_fast at every vertex level (each ring started at
its least (x, y) vertex, the pieces sorted), the slab boxes, every
normal-cut class, every cut through a reflex vertex (chord with its
located ends, r(P_minus), both pieces), every pocket with its row of
the root's pocket table (r, n, monotonicity and its side's walk s..t),
contains and locate_boundary at every vertex, every edge midpoint and the
points of a 9 x 9 grid over the bounding box, and is_dead_point from every vertex and edge midpoint towards each reflex
vertex.  Polygons with n <= 24 also get the attraction_path segments from
every vertex and edge midpoint towards each reflex vertex.  Polygons with
n <= 64 also get the three pieces (A, B, C and the chords' far ends p and
q) at every reflex-edge end, cover and route beacons with their traces,
and those with n <= 24 both verifier reports and the verifiers' inputs:
the build_samples list at SamplePlan(grid=8, seed=1, jitter=4),
default_pairs(poly, 16, 1) and necessity_candidates(poly).  Polygons with
n <= 24 also get both verifier reports, witnesses included, for a beacon
set that mostly fails: the first reflex vertex and an interior point off
the sample lattices, a third of min(1, least gap between vertex levels)
diagonally off vertex 0, which has denominator 3 on integer polygons.
"""

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from rectbeacon.attraction import attraction_path, is_dead_point  # noqa: E402
from rectbeacon.clipping import clip_fast  # noqa: E402
from rectbeacon.errors import GeometryError  # noqa: E402
from rectbeacon.generators import comb, coverage_spiral, random_rectilinear  # noqa: E402
from rectbeacon.geometry import Point, midpoint  # noqa: E402
from rectbeacon.kernel import kernel  # noqa: E402
from rectbeacon.placement import _pocket_rows, _three_pieces, cover, route_beacons  # noqa: E402
from rectbeacon.polygon import (  # noqa: E402
    count_reflex_below,
    iter_normal_cuts,
    pocket,
    split,
    validate,
    vertex_chord,
)
from rectbeacon.regions import slab_rects  # noqa: E402
from rectbeacon.transforms import TRANSFORMS  # noqa: E402
from rectbeacon.verify import (  # noqa: E402
    SamplePlan,
    build_samples,
    default_pairs,
    necessity_candidates,
    verify_coverage,
    verify_routing,
)
from shapes import CASE_B_I, CASE_B_III  # noqa: E402


def corpus():
    polys = [(f"random n={n} seed={s}", random_rectilinear(n, s))
             for n in range(8, 90, 8) for s in range(10)]
    polys += [(f"coverage_spiral r={r}", coverage_spiral(r)[0]) for r in range(1, 25)]
    polys += [(f"comb k={k}", comb(k)) for k in range(1, 20)]
    polys += [(name + " mirror_x", TRANSFORMS["mirror_x"].polygon(p)) for name, p in polys]
    return polys + [(f"{name} {t.name}", t.polygon(validate(ring)))
                    for name, ring in (("CASE_B_I", CASE_B_I), ("CASE_B_III", CASE_B_III))
                    for t in TRANSFORMS.values()]


def pts(points):
    return " ".join(f"({p.x},{p.y})" for p in points)


def canonical(polys):
    """The vertex lists of polygons, each started at its least (x, y) vertex, sorted."""
    rings = []
    for p in polys:
        k = p.vertices.index(min(p.vertices, key=lambda v: (v.x, v.y)))
        rings.append(p.vertices[k:] + p.vertices[:k])
    return [pts(r) for r in sorted(rings, key=lambda r: [(v.x, v.y) for v in r])]


def outcome(fn, *args):
    """fn(*args), or the name of the GeometryError it raised."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc).__name__


def pieces(poly, chord):
    got = outcome(split, poly, chord)
    return got if isinstance(got, str) else " | ".join(pts(p.vertices) for p in got)


def vertex_cut(poly, i, o):
    """The chord vertex_chord(poly, i, o) with its located ends, r(P_minus)
    and both pieces, or the error that vertex_chord raised, three times."""
    ch = outcome(vertex_chord, poly, i, o)
    if isinstance(ch, str):
        return f"{ch} r-={ch} {ch}"
    return (f"{ch.axis}={ch.level} [{ch.lo},{ch.hi}] ends={ch.ends} "
            f"r-={count_reflex_below(poly, ch)} {pieces(poly, ch)}")


def dump_cuts(poly, out):
    for o in "HV":
        for ch, r_minus in iter_normal_cuts(poly, o):
            out(f"normal {o}={ch.level} [{ch.lo},{ch.hi}] r-={r_minus} {pieces(poly, ch)}")
    for i in poly.reflex_indices:
        for o in "HV":
            out(f"vertex cut {i} {o} None: {vertex_cut(poly, i, o)}")
    rows = _pocket_rows(poly)
    for e in poly.reflex_edges():
        for v in (e.a, e.b):
            vi = poly.vertex_index(v)
            s = rows[e.index, vi]
            out(f"pocket {e.index} {vi}: r={s.r} n={s.n} monotone={s.monotone} s={s.s} t={s.t} "
                f"{pts(pocket(poly, e.index, vi).vertices)}")


def dump_three_pieces(poly, out):
    rows = _pocket_rows(poly)
    for e in poly.reflex_edges():
        for vi in (e.index, (e.index + 1) % poly.n):
            got = outcome(_three_pieces, poly, rows, e.index, vi)
            if not isinstance(got, str):
                *parts, p, q = got
                got = " | ".join(pts(x.vertices) for x, _ in parts) + f" p={pts([p])} q={pts([q])}"
            out(f"three pieces {e.index} {vi}: {got}")


def dump_location(poly, out):
    xmin, ymin, xmax, ymax = poly.bbox()
    grid = [Point(xmin + (xmax - xmin) * Fraction(i, 8), ymin + (ymax - ymin) * Fraction(j, 8))
            for j in range(9) for i in range(9)]
    for name, points in (("vertices", poly.vertices),
                         ("midpoints", [midpoint(e.a, e.b) for e in poly.edges]),
                         ("grid", grid)):
        out(f"locate {name}: " + " ".join(f"{poly.contains(p)}{poly.locate_boundary(p)}" for p in points))


def dump_paths(poly, out):
    starts = list(poly.vertices) + [midpoint(e.a, e.b) for e in poly.edges]
    for i in poly.reflex_indices:
        b = poly.vertices[i]
        for q in starts:
            path = attraction_path(poly, q, b)
            segs = " ".join(f"{s.mode[0]}{'' if s.edge is None else s.edge}:({s.a.x},{s.a.y})-({s.b.x},{s.b.y})"
                            for s in path.segments)
            out(f"path ({q.x},{q.y})->{i}: {path.outcome} {path.dead_reason} "
                f"({path.terminal.x},{path.terminal.y}) {segs}")


def dump_verifier_inputs(poly, out):
    out(f"samples: {pts(build_samples(poly, SamplePlan(grid=8, seed=1, jitter=4)))}")
    out("pairs: " + "; ".join(pts(pair) for pair in default_pairs(poly, 16, 1)))
    out(f"candidates: {pts(necessity_candidates(poly))}")


def off_lattice_point(poly):
    """The first of the four points a third of min(1, least gap between
    vertex levels) diagonally off vertex 0 that lies inside poly."""
    levels = [sorted({getattr(v, axis) for v in poly.vertices}) for axis in "xy"]
    third = min(1, *(b - a for c in levels for a, b in zip(c, c[1:]))) / Fraction(3)
    v = poly.vertices[0]
    return next(p for p in (Point(v.x + sx * third, v.y + sy * third) for sx in (1, -1) for sy in (1, -1))
                if poly.contains(p) == "in")


def dump_probe_reports(poly, out):
    beacons = [poly.vertices[i] for i in poly.reflex_indices[:1]] + [off_lattice_point(poly)]
    rep = verify_coverage(poly, beacons, SamplePlan(grid=8, seed=1, jitter=4))
    out(f"probe {pts(beacons)} cover verify: {json.dumps(rep.as_dict(), sort_keys=True)}")
    rep = verify_routing(poly, beacons, pair_count=16, seed=1)
    out(f"probe {pts(beacons)} route verify: {json.dumps(rep.as_dict(), sort_keys=True)}")


def dump(name, poly, out):
    out(f"# {name}: n={poly.n} r={poly.r} {pts(poly.vertices)}")
    k = kernel(poly)
    out(f"kernel bounds={[str(b) for b in k.bounds]} degenerate={k.degenerate} "
        f"{' | '.join(pts(p.vertices) for p in k.pieces)}")
    for axis in "xy":
        for c in sorted({getattr(v, axis) for v in poly.vertices}):
            for keep_low in (True, False):
                got = outcome(clip_fast, poly, axis, c, keep_low)
                shown = got if isinstance(got, str) else " | ".join(canonical(got))
                out(f"clip {axis}={c} low={keep_low}: {shown}")
    out("slabs " + " ".join(f"[{x1},{y1},{x2},{y2}]" for x1, y1, x2, y2 in slab_rects(poly)))
    dump_cuts(poly, out)
    dump_location(poly, out)
    targets = [poly.vertices[i] for i in poly.reflex_indices][:6]
    starts = list(poly.vertices) + [midpoint(e.a, e.b) for e in poly.edges]
    for b in targets:
        out(f"dead towards ({b.x},{b.y}): "
            + "".join("1" if is_dead_point(poly, q, b) else "0" for q in starts))
    if poly.n <= 24:
        dump_paths(poly, out)
        dump_verifier_inputs(poly, out)
        dump_probe_reports(poly, out)
    if poly.n > 64:
        return
    dump_three_pieces(poly, out)
    for place in (cover, route_beacons):
        bs = outcome(place, poly)
        if isinstance(bs, str):
            out(f"{place.__name__}: {bs}")
            continue
        out(f"{place.__name__}: {pts(bs.beacons)} tags={bs.tags}")
        out(f"{place.__name__} trace: {json.dumps(bs.trace.as_dict(), sort_keys=True)}")
        if poly.n <= 24:
            if place is cover:
                rep = verify_coverage(poly, bs.beacons, SamplePlan(grid=8, seed=1, jitter=4))
            else:
                rep = verify_routing(poly, bs.beacons, pair_count=16, seed=1)
            out(f"{place.__name__} verify: {json.dumps(rep.as_dict(), sort_keys=True)}")


def main():
    lines = []
    polys = corpus()
    for name, poly in polys:
        dump(name, poly, lines.append)
    sys.stdout.write("\n".join(lines) + "\n")
    print(f"# {len(polys)} polygons, {len(lines)} lines", file=sys.stderr)


if __name__ == "__main__":
    main()
