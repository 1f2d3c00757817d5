"""Oracles for the verifiers' inputs: the sample, candidate and pair points
built with Fraction arithmetic.

build_samples takes each grid row's closed intervals from chords_on_line
and the horizontal edges on the row, merged, and bisects the row's x
values into them; the reflex offsets, jitter points, candidates and
interior pair points are Fraction points tested with contains.
rectbeacon.verify, which builds the same points as ints over one common
denominator and locates them with locate_scaled, is checked against it.
"""

import bisect
import random
from fractions import Fraction

from rectbeacon.geometry import Point, midpoint
from rectbeacon.polygon import chords_on_line
from rectbeacon.regions import _merge_intervals


def _row_intervals(poly, y):
    """Merged closed x-intervals of the polygon on the horizontal line y."""
    ivs = [(chord.lo, chord.hi) for chord in chords_on_line(poly, "H", y)]
    ivs.extend(e.span() for e in poly.edges if e.orientation == "H" and e.level == y)
    return _merge_intervals(ivs)


def _min_gap(values):
    vs = sorted(set(values))
    return min(vs[i + 1] - vs[i] for i in range(len(vs) - 1))


def build_samples(poly, plan):
    """The grid, the vertices, the edge midpoints, the points half the least
    gap between vertex levels diagonally off each reflex vertex and the
    seeded jitter points of the closed polygon, sorted by (x, y)."""
    samples = set(poly.vertices)
    for e in poly.edges:
        samples.add(midpoint(e.a, e.b))
    off = min(_min_gap([v.x for v in poly.vertices]), _min_gap([v.y for v in poly.vertices])) / 2
    for i in poly.reflex_indices:
        v = poly.vertices[i]
        for dx in (-off, off):
            for dy in (-off, off):
                q = Point(v.x + dx, v.y + dy)
                if poly.contains(q) != "out":
                    samples.add(q)
    xmin, ymin, xmax, ymax = poly.bbox()
    k = max(1, plan.grid)
    for iy in range(k + 1):
        y = ymin + Fraction(iy, k) * (ymax - ymin)
        rows = _row_intervals(poly, y)
        starts = [iv[0] for iv in rows]
        for ix in range(k + 1):
            x = xmin + Fraction(ix, k) * (xmax - xmin)
            j = bisect.bisect_right(starts, x) - 1
            if j >= 0 and rows[j][0] <= x <= rows[j][1]:
                samples.add(Point(x, y))
    if plan.jitter:
        rng = random.Random(plan.seed)
        tries = added = 0
        while added < plan.jitter and tries < plan.jitter * 100:
            tries += 1
            x = xmin + Fraction(rng.randrange(0, 1 << 12), 1 << 12) * (xmax - xmin)
            y = ymin + Fraction(rng.randrange(0, 1 << 12), 1 << 12) * (ymax - ymin)
            q = Point(x, y)
            if poly.contains(q) != "out":
                samples.add(q)
                added += 1
    return sorted(samples, key=lambda p: (p.x, p.y))


def default_pairs(poly, count=100, seed=0):
    """All ordered pairs of distinct vertices, then up to count ordered
    pairs of distinct seeded interior points."""
    pairs = [(u, v) for u in poly.vertices for v in poly.vertices if u != v]
    rng = random.Random(seed)
    xmin, ymin, xmax, ymax = poly.bbox()
    pts = []
    tries = 0
    while len(pts) < max(2, int(2 * count ** 0.5) + 2) and tries < 10000:
        tries += 1
        x = xmin + Fraction(rng.randrange(0, 1 << 10), 1 << 10) * (xmax - xmin)
        y = ymin + Fraction(rng.randrange(0, 1 << 10), 1 << 10) * (ymax - ymin)
        q = Point(x, y)
        if poly.contains(q) == "in":
            pts.append(q)
    extra = 0
    for u in pts:
        for v in pts:
            if u != v and extra < count:
                pairs.append((u, v))
                extra += 1
    return pairs


def necessity_candidates(poly, grid=6, extra=()):
    """The vertices, the points of extra and of the grid over the bounding
    box in the closed polygon, sorted by (x, y)."""
    cands = set(poly.vertices)
    cands.update(p for p in extra if poly.contains(p) != "out")
    xmin, ymin, xmax, ymax = poly.bbox()
    for ix in range(grid + 1):
        for iy in range(grid + 1):
            q = Point(xmin + Fraction(ix, grid) * (xmax - xmin),
                      ymin + Fraction(iy, grid) * (ymax - ymin))
            if poly.contains(q) != "out":
                cands.add(q)
    return sorted(cands, key=lambda p: p.key())
