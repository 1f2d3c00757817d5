"""Independent verification: coverage by sampling, routing by reachability,
lower-bound necessity by candidate exhaustion.

Coverage checking is sampling-based, not a proof: the report records the
sampling density, and density is boosted near reflex vertices where the
known failure witnesses live.

Samples, necessity candidates and interior pair points are lattice points
built as ints, times D*m for D the edge index's scale, located by
locate_scaled.  Samples and pair points enter AttractionMemo as those ints,
with their locations, and become Points only for a witness; the memo keeps
one attraction frame per beacon, so a beacon is scaled and located once,
not once per path.

Both verifiers simulate only the paths that can change their report.
AttractionGraph.puller stops at the first beacon that pulls a sample.
verify_routing reads each pair's chain of beacons first and simulates the
direct path from s to t only when no chain exists or the chain is longer
than the running max_chain: otherwise the pair's chain is 0 or at most
max_chain, and the report is the same either way.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# attracts stays importable from here, where perfbench's traced run wraps it.
from .attraction import _Frame, _simulate, attraction_path, attracts  # noqa: F401
from .errors import BudgetExceeded, PointOutsidePolygon
from .geometry import Point
from .polygon import RectPolygon


class SamplePlan:
    """Deterministic sample set description for verification runs: a
    (grid+1) x (grid+1) lattice, grid >= 1, plus jitter >= 0 seeded points."""

    def __init__(self, grid: int = 40, seed: int = 0, jitter: int = 0):
        if grid < 1:
            raise ValueError(f"grid must be at least 1, not {grid}")
        if jitter < 0:
            raise ValueError(f"jitter must be at least 0, not {jitter}")
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


def _lattice(poly: RectPolygon, k: int, m: int) -> Dict[Tuple[int, int], object]:
    """The points of the (k+1) x (k+1) lattice over poly's bounding box in
    the closed polygon, times D*m (see _box), with their locate_scaled
    locations."""
    x0, y0, dx, dy = _box(poly, k, m)
    rows = [y0 + j * dy for j in range(k + 1)]
    return {(x, y): where for x in (x0 + i * dx for i in range(k + 1)) for y in rows
            if (where := poly.locate_scaled(x, y, m)) != "out"}


def _points(pairs: Iterable[Tuple[int, int]], s: int) -> List[Point]:
    """The Points of int pairs that are coordinates times s."""
    return [Point(Fraction(x, s), Fraction(y, s)) for x, y in pairs]


def _sample_ids(memo: "AttractionMemo", plan: SamplePlan) -> List[int]:
    """The memo ids of build_samples' points, in its order, each entered as
    located ints."""
    poly = memo.poly
    k = plan.grid
    m = lcm(2, k, 1 << 12 if plan.jitter else 1)
    _, xs, ys = poly._ints
    h, n = m // 2, poly.n
    samples = {(x * m, y * m): (i, True) for i, (x, y) in enumerate(zip(xs, ys))}
    samples.update((((xs[i - 1] + xs[i]) * h, (ys[i - 1] + ys[i]) * h), ((i - 1) % n, False)) for i in range(n))
    # Half the least gap between vertex levels, diagonally off each reflex vertex.
    gaps = [b - a for c in (sorted(set(xs)), sorted(set(ys))) for a, b in zip(c, c[1:])]
    off = min(gaps) * h
    for i in poly.reflex_indices:
        for x in (xs[i] * m - off, xs[i] * m + off):
            for y in (ys[i] * m - off, ys[i] * m + off):
                where = poly.locate_scaled(x, y, m)
                if where != "out":
                    samples[(x, y)] = where
    samples.update(_lattice(poly, k, m))
    if plan.jitter:
        rng = random.Random(plan.seed)
        x0, y0, dx, dy = _box(poly, 1 << 12, m)
        tries = added = 0
        while added < plan.jitter and tries < plan.jitter * 100:
            tries += 1
            x, y = x0 + rng.randrange(0, 1 << 12) * dx, y0 + rng.randrange(0, 1 << 12) * dy
            where = poly.locate_scaled(x, y, m)
            if where != "out":
                samples[(x, y)] = where
                added += 1
    return [memo.add(x, y, m, where) for (x, y), where in sorted(samples.items())]


def build_samples(poly: RectPolygon, plan: SamplePlan) -> List[Point]:
    """Sample points of the closed polygon: a grid, all vertices, all edge
    midpoints, interior offsets near each reflex vertex, plus seeded jitter.

    Every point is an int pair, its coordinates times D*m with m = lcm(2,
    grid, 4096 when jittering); locate_scaled keeps or drops it, and the
    pairs are deduplicated and sorted, by (x, y), before they become Points."""
    memo = AttractionMemo(poly)
    return [memo.point(i) for i in _sample_ids(memo, plan)]


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
    """Every sample point must be attracted by at least one beacon.  The
    samples enter the memo as the located ints build_samples sorts; only a
    witness becomes a Point."""
    plan = plan or SamplePlan()
    graph = AttractionGraph(poly, beacons)
    memo, blist = graph.memo, graph.beacons
    samples = _sample_ids(memo, plan)
    witnesses = []
    uncovered = 0
    for s in samples:
        if graph.puller(s) is not None:
            continue
        uncovered += 1
        if len(witnesses) < witness_limit:
            point = memo.point(s)
            paths = [attraction_path(poly, point, b) for b in blist]
            witnesses.append({
                "point": [str(point.x), str(point.y)],
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

    Every point gets an id when it enters: a Point through id, once per
    distinct Point, or a point of the verifiers' int lattices through add.
    Per id the memo keeps the point's ints (x, y, m), its coordinates times
    D*m with m its denominator (a lattice's m for added points), and its
    location once found.  A path from source towards beacon runs at q, the
    lcm of their m: on one frame per (beacon id, q) and one start state per
    (source id, q), each built once.  The answers are keyed on (beacon id,
    source id), so a lookup hashes two small ints.  A memo shared by
    several graphs shares its ids, frames and answers with them.
    """

    def __init__(self, poly: RectPolygon):
        self.poly = poly
        self.ids: Dict[Point, int] = {}
        self.points: List[Optional[Point]] = []  # None until point() needs it
        self._ints: List[Tuple[int, int, int]] = []
        self._where: List[object] = []  # None until a path starts there
        self._frames: Dict[Tuple[int, int], _Frame] = {}
        self._starts: Dict[Tuple[int, int], Tuple[Tuple[int, int, int], object]] = {}
        self.known: Dict[Tuple[int, int], bool] = {}

    def id(self, p: Point) -> int:
        i = self.ids.get(p)
        if i is None:
            i = self.ids[p] = self.add(*self.poly._scale_point(p))
            self.points[i] = p
        return i

    def add(self, x: int, y: int, m: int, where: object = None) -> int:
        """A new id for the point (x, y) / (D*m), with its locate_scaled
        location where if the caller has it."""
        self._ints.append((x, y, m))
        self._where.append(where)
        self.points.append(None)
        return len(self._ints) - 1

    def point(self, i: int) -> Point:
        """The Point of id i."""
        p = self.points[i]
        if p is None:
            x, y, m = self._ints[i]
            s = self.poly._ints[0] * m
            p = self.points[i] = Point(Fraction(x, s), Fraction(y, s))
        return p

    def frame(self, beacon: int, q: Optional[int] = None) -> _Frame:
        """The frame of the point of id beacon at q, a multiple of its m
        (by default m itself), built, and the beacon located, once."""
        q = self._ints[beacon][2] if q is None else q
        frame = self._frames.get((beacon, q))
        if frame is None:
            frame = self._frames[(beacon, q)] = _Frame(self.poly, self.point(beacon), q)
        return frame

    def start(self, source: int, q: int) -> Tuple[Tuple[int, int, int], object]:
        """The start state of the point of id source at q, a multiple of its
        m, located on first use unless its location came with it."""
        got = self._starts.get((source, q))
        if got is None:
            x, y, m = self._ints[source]
            where = self._where[source]
            if where is None:
                where = self.poly.locate_scaled(x, y, m)
                if where == "out":
                    raise PointOutsidePolygon(f"start {self.point(source)} is outside the polygon")
                self._where[source] = where
            k = q // m
            got = self._starts[(source, q)] = ((x * k, y * k, 1), where)
        return got

    def attracts(self, beacon: int, source: int) -> bool:
        key = (beacon, source)
        got = self.known.get(key)
        if got is None:
            q = lcm(self._ints[beacon][2], self._ints[source][2])
            got = self.known[key] = _simulate(self.frame(beacon, q), self.start(source, q))[2]
        return got


class AttractionGraph:
    """Directed beacon-to-beacon attraction reachability with memoization.

    The frames of the beacons are built, and the beacons located, when the
    graph is.  Each question simulates only the paths its answer needs.
    puller stops at the first beacon that pulls a point, and asks first the
    one that pulled the last point asked about: the verifiers ask about
    samples sorted by (x, y), and neighbours mostly share a puller.  chain
    reads a routing chain from the beacons' answers alone; per source it
    keeps the breadth-first levels found so far, and a beacon's successors
    are simulated when a search first steps past it.  route adds the direct
    path."""

    def __init__(self, poly: RectPolygon, beacons: Sequence[Point],
                 memo: Optional[AttractionMemo] = None):
        self.poly = poly
        self.beacons = list(beacons)
        self.memo = AttractionMemo(poly) if memo is None else memo
        self._ids = [self.memo.id(b) for b in self.beacons]
        for i in self._ids:
            self.memo.frame(i)
        self._last = 0
        self._succ: List[Optional[List[int]]] = [None] * len(self._ids)
        self._levels: Dict[int, List[List[int]]] = {}

    def puller(self, source: int) -> Optional[int]:
        """The index of a beacon that pulls the point of memo id source, or
        None: the last puller found first, then the others in index order,
        each simulated only when it is asked."""
        attr, ids, last = self.memo.attracts, self._ids, self._last
        if ids and attr(ids[last], source):
            return last
        for i, b in enumerate(ids):
            if i != last and attr(b, source):
                self._last = i
                return i
        return None

    def chain(self, s: int, t: int) -> Optional[int]:
        """The least number of beacons, at least 1, that route the point of
        memo id s to that of memo id t, or None: the first beacon pulls s,
        each next beacon pulls the one before and t pulls the last.  The
        direct path from s to t is not asked."""
        attr, ids = self.memo.attracts, self._ids
        levels = self._levels.get(s)
        if levels is None:
            levels = self._levels[s] = [[i for i, b in enumerate(ids) if attr(b, s)]]
        # levels[d - 1] holds the beacons first reached from s by d of
        # them; the next level is found when a search first needs it.
        for depth, level in enumerate(levels, 1):
            if any(attr(t, ids[i]) for i in level):
                return depth
            if depth == len(levels):
                seen = set().union(*levels)
                nxt = [j for j in dict.fromkeys(j for i in level for j in self._next(i)) if j not in seen]
                if nxt:
                    levels.append(nxt)
        return None

    def _next(self, i: int) -> List[int]:
        """The indices of the beacons that pull the position of beacon i."""
        succ = self._succ[i]
        if succ is None:
            attr, ids = self.memo.attracts, self._ids
            succ = self._succ[i] = [j for j, b in enumerate(ids) if j != i and attr(b, ids[i])]
        return succ

    def route(self, s: int, t: int) -> Optional[int]:
        """Chain length routing the point of memo id s to that of memo id t
        (0 = direct attraction), or None."""
        return 0 if self.memo.attracts(t, s) else self.chain(s, t)


def _default_pair_ids(memo: "AttractionMemo", count: int, seed: int) -> List[Tuple[int, int]]:
    """default_pairs as memo ids, one per distinct point, each entered as
    located ints: the vertices, times D, then the points drawn from the
    1024 x 1024 lattice, times D*1024, in the order first drawn."""
    poly = memo.poly
    _, xs, ys = poly._ints
    vertices = [memo.add(x, y, 1, (i, True)) for i, (x, y) in enumerate(zip(xs, ys))]
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
    ids: Dict[Tuple[int, int], int] = {}
    for x, y in drawn:
        if (x, y) not in ids:
            ids[(x, y)] = memo.add(x, y, m, "in")
    at = [ids[xy] for xy in drawn]
    pairs = list(itertools.permutations(vertices, 2))
    return pairs + list(itertools.islice(((i, j) for i in at for j in at if i != j), count))


def default_pairs(poly: RectPolygon, count: int = 100, seed: int = 0) -> List[Tuple[Point, Point]]:
    """All ordered vertex pairs plus seeded random interior pairs: up to
    count ordered pairs of distinct points drawn from the 1024 x 1024
    lattice over the bounding box, kept when locate_scaled puts them inside."""
    memo = AttractionMemo(poly)
    return [(memo.point(s), memo.point(t)) for s, t in _default_pair_ids(memo, count, seed)]


def verify_routing(poly: RectPolygon, beacons: Sequence[Point],
                   pairs: Optional[Iterable[Tuple[Point, Point]]] = None,
                   pair_count: int = 100, seed: int = 0,
                   witness_limit: int = 16) -> VerifyReport:
    """Each (s, t) pair must reach t through a chain of beacon attractions.
    Default pairs enter the memo as located ints, one id per distinct
    point; only a witness becomes a Point."""
    graph = AttractionGraph(poly, beacons)
    memo = graph.memo
    if pairs is None:
        id_pairs = _default_pair_ids(memo, pair_count, seed)
    else:
        id_pairs = [(memo.id(s), memo.id(t)) for s, t in pairs]
    witnesses = []
    failed = 0
    max_chain = 0
    for s, t in id_pairs:
        chain = graph.chain(s, t)
        # The pair's chain is 0 when t pulls s straight, graph.chain's
        # otherwise.  Only when that is None or above max_chain can the
        # direct path change the report, so only then is it simulated.
        if (chain is None or chain > max_chain) and memo.attracts(t, s):
            chain = 0
        if chain is None:
            failed += 1
            if len(witnesses) < witness_limit:
                u, v = memo.point(s), memo.point(t)
                witnesses.append({"from": [str(u.x), str(u.y)],
                                  "to": [str(v.x), str(v.y)]})
        else:
            max_chain = max(max_chain, chain)
    stats = {"pairs": len(id_pairs), "unroutable": failed,
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
        x, y, _ = poly._scale_point(p, m)
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
    memo = AttractionMemo(poly)  # shared by every subset
    if mode == "route":
        if pairs is None:
            pair_ids = _default_pair_ids(memo, 20, 0)
        else:
            pair_ids = [(memo.id(s), memo.id(t)) for s, t in pairs]
        cost = total * (len(pair_ids) + k * k)
    else:
        sample_ids = _sample_ids(memo, plan or SamplePlan(grid=12))
        cost = total * len(sample_ids)
    if cost > budget:
        raise BudgetExceeded(f"necessity check needs ~{cost} evaluations > {budget}")

    tried = 0
    for subset in itertools.combinations(cands, k):
        tried += 1
        graph = AttractionGraph(poly, subset, memo)
        if mode == "cover":
            done = all(graph.puller(s) is not None for s in sample_ids)
        else:
            done = all(graph.chain(s, t) is not None or memo.attracts(t, s) for s, t in pair_ids)
        if done:
            return ("counterexample", graph.beacons)
    return ("pass", tried)
