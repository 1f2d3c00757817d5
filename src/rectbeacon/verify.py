"""Independent verification: coverage by sampling, routing by reachability,
lower-bound necessity by candidate exhaustion.

Coverage checking is sampling-based, not a proof: the report records the
sampling density, and density is boosted near reflex vertices where the
known failure witnesses live.

Samples, necessity candidates and interior pair points are lattice points
built as ints, times D*m for D the edge index's scale, located by
locate_scaled.  AttractionGraph.pulling says which beacons pull a point,
for coverage and for routing.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .attraction import attraction_path, attracts
from .errors import BudgetExceeded
from .geometry import Point
from .polygon import RectPolygon


class SamplePlan:
    """Deterministic sample set description for verification runs."""

    def __init__(self, grid: int = 40, seed: int = 0, jitter: int = 0):
        self.grid = grid
        self.seed = seed
        self.jitter = jitter

    def __repr__(self):
        return f"SamplePlan(grid={self.grid}, seed={self.seed}, jitter={self.jitter})"


def _box(poly: RectPolygon, k: int, m: int) -> Tuple[int, int, int, int]:
    """(x0, y0, dx, dy): the point i/k of the way across poly's bounding box
    and j/k of the way up is (x0 + i*dx, y0 + j*dy) / (D*m), D the edge
    index's scale and m a multiple of k."""
    _, xs, ys = poly._ints
    f = m // k
    return min(xs) * m, min(ys) * m, (max(xs) - min(xs)) * f, (max(ys) - min(ys)) * f


def _lattice(poly: RectPolygon, k: int, m: int) -> List[Tuple[int, int]]:
    """The points of the (k+1) x (k+1) lattice over poly's bounding box in
    the closed polygon, times D*m (see _box)."""
    x0, y0, dx, dy = _box(poly, k, m)
    rows = [y0 + j * dy for j in range(k + 1)]
    return [(x, y) for x in (x0 + i * dx for i in range(k + 1)) for y in rows
            if poly.locate_scaled(x, y, m) != "out"]


def _points(pairs: Iterable[Tuple[int, int]], s: int) -> List[Point]:
    """The Points of int pairs that are coordinates times s."""
    return [Point(Fraction(x, s), Fraction(y, s)) for x, y in pairs]


def build_samples(poly: RectPolygon, plan: SamplePlan) -> List[Point]:
    """Sample points of the closed polygon: a grid, all vertices, all edge
    midpoints, interior offsets near each reflex vertex, plus seeded jitter.

    Every point is an int pair, its coordinates times D*m with m = lcm(2,
    grid, 4096 when jittering); locate_scaled keeps or drops it, and the
    pairs are deduplicated and sorted, by (x, y), before they become Points."""
    k = max(1, plan.grid)
    m = lcm(2, k, 1 << 12 if plan.jitter else 1)
    d, xs, ys = poly._ints
    h = m // 2
    samples = {(x * m, y * m) for x, y in zip(xs, ys)}
    samples.update(((xs[i - 1] + xs[i]) * h, (ys[i - 1] + ys[i]) * h) for i in range(poly.n))
    # Half the least gap between vertex levels, diagonally off each reflex vertex.
    gaps = [b - a for c in (sorted(set(xs)), sorted(set(ys))) for a, b in zip(c, c[1:])]
    off = min(gaps) * h
    for i in poly.reflex_indices:
        for x in (xs[i] * m - off, xs[i] * m + off):
            for y in (ys[i] * m - off, ys[i] * m + off):
                if poly.locate_scaled(x, y, m) != "out":
                    samples.add((x, y))
    samples.update(_lattice(poly, k, m))
    if plan.jitter:
        rng = random.Random(plan.seed)
        x0, y0, dx, dy = _box(poly, 1 << 12, m)
        tries = added = 0
        while added < plan.jitter and tries < plan.jitter * 100:
            tries += 1
            x, y = x0 + rng.randrange(0, 1 << 12) * dx, y0 + rng.randrange(0, 1 << 12) * dy
            if poly.locate_scaled(x, y, m) != "out":
                samples.add((x, y))
                added += 1
    return _points(sorted(samples), d * m)


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
    graph = AttractionGraph(poly, beacons)
    blist = graph.beacons
    witnesses = []
    uncovered = 0
    for s in samples:
        if next(graph.pulling(graph.memo.id(s)), None) is not None:
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
    """Directed beacon-to-beacon attraction reachability with memoization.

    pulling answers which beacons pull a point, for coverage and for the
    first step of a route; the successor lists between the beacons are
    built on the first route."""

    def __init__(self, poly: RectPolygon, beacons: Sequence[Point],
                 memo: Optional[AttractionMemo] = None):
        self.poly = poly
        self.beacons = list(beacons)
        self.memo = AttractionMemo(poly) if memo is None else memo
        self._ids = [self.memo.id(b) for b in self.beacons]
        self._succ: Optional[List[List[int]]] = None

    def pulling(self, source: int) -> Iterator[int]:
        """The indices of the beacons that pull the point of memo id source,
        in order; each beacon is simulated only when the iteration reaches it."""
        attr = self.memo.attracts
        return (i for i, b in enumerate(self._ids) if attr(b, source))

    def route(self, s: int, t: int) -> Optional[int]:
        """Chain length routing the point of memo id s to that of memo id t
        (0 = direct attraction), or None."""
        attr, ids = self.memo.attracts, self._ids
        if self._succ is None:
            self._succ = [[j for j, dst in enumerate(ids) if i != j and attr(dst, src)]
                          for i, src in enumerate(ids)]
        if attr(t, s):
            return 0
        frontier = list(self.pulling(s))
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
    """All ordered vertex pairs plus seeded random interior pairs: up to
    count ordered pairs of distinct points drawn from the 1024 x 1024
    lattice over the bounding box, kept when locate_scaled puts them inside."""
    pairs = list(itertools.permutations(poly.vertices, 2))
    rng = random.Random(seed)
    m = 1 << 10
    x0, y0, dx, dy = _box(poly, m, m)
    drawn: List[Tuple[int, int]] = []
    tries = 0
    while len(drawn) < max(2, int(2 * count ** 0.5) + 2) and tries < 10000:
        tries += 1
        x, y = x0 + rng.randrange(0, m) * dx, y0 + rng.randrange(0, m) * dy
        if poly.locate_scaled(x, y, m) == "in":
            drawn.append((x, y))
    pts = list(zip(drawn, _points(drawn, poly._ints[0] * m)))
    return pairs + list(itertools.islice(((u, v) for a, u in pts for b, v in pts if a != b), count))


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
        chain = graph.route(graph.memo.id(s), graph.memo.id(t))
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
    """Candidate beacon positions in the closed polygon: vertices, a coarse
    grid over the bounding box and the extras, sorted by (x, y).  They are
    int pairs, times D*m with m the common denominator of grid and the
    extras, until they become Points."""
    extra = list(extra)
    m = lcm(grid, *(c.denominator for p in extra for c in (p.x, p.y)))
    d, xs, ys = poly._ints
    s = d * m
    cands = {(x * m, y * m) for x, y in zip(xs, ys)}
    for p in extra:
        x, y = p.x.numerator * (s // p.x.denominator), p.y.numerator * (s // p.y.denominator)
        if poly.locate_scaled(x, y, m) != "out":
            cands.add((x, y))
    cands.update(_lattice(poly, grid, m))
    return _points(sorted(cands), s)


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
    if mode not in ("cover", "route"):
        raise ValueError(f"mode must be 'cover' or 'route', not {mode!r}")
    cands = list(candidates) if candidates is not None else necessity_candidates(poly)
    total = comb(len(cands), k)
    if mode == "route":
        pair_list = list(pairs) if pairs is not None else default_pairs(poly, 20)
        cost = total * (len(pair_list) + k * k)
    else:
        samples = build_samples(poly, plan or SamplePlan(grid=12))
        cost = total * len(samples)
    if cost > budget:
        raise BudgetExceeded(f"necessity check needs ~{cost} evaluations > {budget}")

    memo = AttractionMemo(poly)  # shared by every subset
    if mode == "cover":
        sample_ids = [memo.id(s) for s in samples]
    else:
        pair_ids = [(memo.id(s), memo.id(t)) for s, t in pair_list]

    tried = 0
    for subset in itertools.combinations(cands, k):
        tried += 1
        graph = AttractionGraph(poly, subset, memo)
        if mode == "cover":
            done = all(next(graph.pulling(s), None) is not None for s in sample_ids)
        else:
            done = all(graph.route(s, t) is not None for s, t in pair_ids)
        if done:
            return ("counterexample", graph.beacons)
    return ("pass", tried)
