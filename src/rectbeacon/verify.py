"""Independent verification: coverage by sampling, routing by reachability,
lower-bound necessity by candidate exhaustion.

Coverage checking is sampling-based, not a proof: the report records the
sampling density, and density is boosted near reflex vertices where the
known failure witnesses live.
"""

from __future__ import annotations

import bisect
import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .attraction import attraction_path, attracts
from .errors import BudgetExceeded
from .geometry import Point, midpoint
from .polygon import RectPolygon, chords_on_line
from .regions import _merge_intervals


class SamplePlan:
    """Deterministic sample set description for verification runs."""

    def __init__(self, grid: int = 40, seed: int = 0, jitter: int = 0):
        self.grid = grid
        self.seed = seed
        self.jitter = jitter

    def __repr__(self):
        return f"SamplePlan(grid={self.grid}, seed={self.seed}, jitter={self.jitter})"


def _row_intervals(poly: RectPolygon, y: Fraction) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Merged closed x-intervals of the polygon on the horizontal line y."""
    ivs = [(chord.lo, chord.hi) for chord in chords_on_line(poly, "H", y)]
    ivs.extend(poly.edges[row[5]].span() for row in poly.edges_at("H", y))
    return _merge_intervals(ivs)


def _min_gap(values: Sequence[Fraction]) -> Fraction:
    vs = sorted(set(values))
    if len(vs) < 2:
        return Fraction(1)
    return min(vs[i + 1] - vs[i] for i in range(len(vs) - 1))


def build_samples(poly: RectPolygon, plan: SamplePlan) -> List[Point]:
    """Sample points of the closed polygon: a grid, all vertices, all edge
    midpoints, interior offsets near each reflex vertex, plus seeded jitter."""
    samples = set(poly.vertices)
    for e in poly.edges:
        samples.add(midpoint(e.a, e.b))
    gap = min(_min_gap([v.x for v in poly.vertices]),
              _min_gap([v.y for v in poly.vertices]))
    off = gap / 2
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
        if not rows:
            continue
        starts = [iv[0] for iv in rows]
        for ix in range(k + 1):
            x = xmin + Fraction(ix, k) * (xmax - xmin)
            j = bisect.bisect_right(starts, x) - 1
            if j >= 0 and rows[j][0] <= x <= rows[j][1]:
                samples.add(Point(x, y))
    if plan.jitter:
        rng = random.Random(plan.seed)
        tries = 0
        added = 0
        while added < plan.jitter and tries < plan.jitter * 100:
            tries += 1
            x = xmin + Fraction(rng.randrange(0, 1 << 12), 1 << 12) * (xmax - xmin)
            y = ymin + Fraction(rng.randrange(0, 1 << 12), 1 << 12) * (ymax - ymin)
            q = Point(x, y)
            if poly.contains(q) != "out":
                samples.add(q)
                added += 1
    # By (x, y), compared as ints: the coordinates times their common denominator.
    d = lcm(*(p.x.denominator for p in samples), *(p.y.denominator for p in samples))
    return sorted(samples, key=lambda p: (p.x.numerator * (d // p.x.denominator),
                                          p.y.numerator * (d // p.y.denominator)))


class VerifyReport:
    def __init__(self, verdict: bool, witnesses: List, stats: Dict):
        self.verdict = verdict
        self.witnesses = witnesses
        self.stats = stats

    @property
    def passed(self) -> bool:
        return self.verdict

    def as_dict(self):
        return {
            "verdict": "pass" if self.verdict else "fail",
            "witnesses": self.witnesses,
            "stats": self.stats,
        }

    def __repr__(self):
        return f"VerifyReport({'pass' if self.verdict else 'fail'}, {self.stats})"


def verify_coverage(poly: RectPolygon, beacons: Sequence[Point],
                    plan: Optional[SamplePlan] = None,
                    witness_limit: int = 16) -> VerifyReport:
    """Every sample point must be attracted by at least one beacon."""
    plan = plan or SamplePlan()
    samples = build_samples(poly, plan)
    blist = list(beacons)
    witnesses = []
    uncovered = 0
    for s in samples:
        if any(attracts(poly, b, s) for b in blist):
            continue
        uncovered += 1
        if len(witnesses) < witness_limit:
            paths = [attraction_path(poly, s, b) for b in blist]
            witnesses.append({
                "point": [str(s.x), str(s.y)],
                "outcomes": [
                    {"beacon": [str(b.x), str(b.y)],
                     "outcome": p.outcome,
                     "dead_reason": p.dead_reason,
                     "terminal": [str(p.terminal.x), str(p.terminal.y)]}
                    for b, p in zip(blist, paths)
                ],
            })
    stats = {"samples": len(samples), "uncovered": uncovered,
             "beacons": len(blist), "plan": repr(plan)}
    return VerifyReport(uncovered == 0, witnesses, stats)


class AttractionMemo:
    """attracts(poly, beacon, source) by point ids, each computed once.

    ids numbers every distinct point once, in the order first seen; the
    answers are keyed on (beacon id, source id), so a lookup hashes two
    small ints instead of two Points.  A memo shared by several graphs
    carries its id table with it.
    """

    def __init__(self, poly: RectPolygon):
        self.poly = poly
        self.ids: Dict[Point, int] = {}
        self.points: List[Point] = []
        self.known: Dict[Tuple[int, int], bool] = {}

    def id(self, p: Point) -> int:
        i = self.ids.get(p)
        if i is None:
            i = self.ids[p] = len(self.points)
            self.points.append(p)
        return i

    def attracts(self, beacon: int, source: int) -> bool:
        key = (beacon, source)
        got = self.known.get(key)
        if got is None:
            got = self.known[key] = attracts(self.poly, self.points[beacon], self.points[source])
        return got


class AttractionGraph:
    """Directed beacon-to-beacon attraction reachability with memoization."""

    def __init__(self, poly: RectPolygon, beacons: Sequence[Point],
                 memo: Optional[AttractionMemo] = None):
        self.poly = poly
        self.beacons = list(beacons)
        self.memo = AttractionMemo(poly) if memo is None else memo
        attr = self.memo.attracts
        self._ids = [self.memo.id(b) for b in self.beacons]
        self._succ: Dict[int, List[int]] = {}
        for i, src in enumerate(self._ids):
            self._succ[i] = [j for j, dst in enumerate(self._ids) if i != j and attr(dst, src)]

    def route(self, s: Point, t: Point) -> Optional[int]:
        """Chain length routing s to t (0 = direct attraction), or None."""
        attr, ids = self.memo.attracts, self._ids
        s, t = self.memo.id(s), self.memo.id(t)
        if attr(t, s):
            return 0
        frontier = [i for i, b in enumerate(ids) if attr(b, s)]
        seen = set(frontier)
        depth = 1
        while frontier:
            if any(attr(t, ids[i]) for i in frontier):
                return depth
            nxt = []
            for i in frontier:
                for j in self._succ[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
            depth += 1
        return None


def default_pairs(poly: RectPolygon, count: int = 100, seed: int = 0) -> List[Tuple[Point, Point]]:
    """All ordered vertex pairs plus seeded random interior pairs."""
    pairs = [(u, v) for u in poly.vertices for v in poly.vertices if u != v]
    rng = random.Random(seed)
    xmin, ymin, xmax, ymax = poly.bbox()
    pts: List[Point] = []
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


def verify_routing(poly: RectPolygon, beacons: Sequence[Point],
                   pairs: Optional[Iterable[Tuple[Point, Point]]] = None,
                   pair_count: int = 100, seed: int = 0,
                   witness_limit: int = 16) -> VerifyReport:
    """Each (s, t) pair must reach t through a chain of beacon attractions."""
    graph = AttractionGraph(poly, beacons)
    if pairs is None:
        pairs = default_pairs(poly, pair_count, seed)
    pairs = list(pairs)
    witnesses = []
    failed = 0
    max_chain = 0
    for s, t in pairs:
        chain = graph.route(s, t)
        if chain is None:
            failed += 1
            if len(witnesses) < witness_limit:
                witnesses.append({"from": [str(s.x), str(s.y)],
                                  "to": [str(t.x), str(t.y)]})
        else:
            max_chain = max(max_chain, chain)
    stats = {"pairs": len(pairs), "unroutable": failed,
             "beacons": len(beacons), "max_chain": max_chain}
    return VerifyReport(failed == 0, witnesses, stats)


def necessity_candidates(poly: RectPolygon, grid: int = 6,
                         extra: Iterable[Point] = ()) -> List[Point]:
    """Candidate beacon positions: vertices, a coarse interior grid, extras."""
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


def exhaust_necessity(poly: RectPolygon, k: int, mode: str,
                      candidates: Optional[Sequence[Point]] = None,
                      pairs: Optional[Sequence[Tuple[Point, Point]]] = None,
                      plan: Optional[SamplePlan] = None,
                      budget: int = 10 ** 6):
    """Try every k-subset of candidate positions; Pass means all fail.

    This is a discretized corroboration of 'at least k+1 beacons needed',
    never a proof.  Returns ('pass', tried) or ('counterexample', subset).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cands = list(candidates) if candidates is not None else necessity_candidates(poly)
    total = 1
    for i in range(k):
        total = total * (len(cands) - i) // (i + 1)
    if mode == "route":
        pair_list = list(pairs) if pairs is not None else default_pairs(poly, 20)
        cost = total * (len(pair_list) + k * k)
    else:
        plan = plan or SamplePlan(grid=12)
        samples = build_samples(poly, plan)
        cost = total * len(samples)
    if cost > budget:
        raise BudgetExceeded(f"necessity check needs ~{cost} evaluations > {budget}")

    memo = AttractionMemo(poly)  # shared by every subset
    ids = [memo.id(c) for c in cands]
    sample_ids = [memo.id(s) for s in samples] if mode == "cover" else []

    tried = 0
    for subset in itertools.combinations(range(len(cands)), k):
        tried += 1
        beacons = [cands[i] for i in subset]
        if mode == "cover":
            if all(any(memo.attracts(ids[i], s) for i in subset) for s in sample_ids):
                return ("counterexample", beacons)
        else:
            graph = AttractionGraph(poly, beacons, memo)
            if all(graph.route(s, t) is not None for s, t in pair_list):
                return ("counterexample", beacons)
    return ("pass", tried)
