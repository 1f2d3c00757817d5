"""Instance generators: lower-bound spirals and random fuzzing polygons."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ConstraintUnsatisfied,
    GeneralPositionViolated,
    GenerationFailed,
    NotCoverageSpiral,
    NotRectilinear,
    NotSimple,
)
from .geometry import Point, midpoint
from .placement import BeaconSet
from .polygon import RectPolygon, validate

EAST = Point(1, 0)
SOUTH = Point(0, -1)
WEST = Point(-1, 0)
NORTH = Point(0, 1)

# Spine directions turn right (clockwise) so the spine vertices are the
# reflex vertices of the CCW polygon.
_SPINE_DIRS = [EAST, SOUTH, WEST, NORTH]
_LEFT_NORMAL = {EAST: NORTH, SOUTH: EAST, WEST: SOUTH, NORTH: WEST}

# Attempts before giving up: routing spirals double their growth factor on
# each, random polygons double their coordinate scale or draw again.
_SPIRAL_RETRIES = 6
_RANDOM_RETRIES = 40


class SpiralSpec:
    __slots__ = ("r", "rho", "eps", "spine_lengths", "widths", "kind")

    def __init__(self, r, rho, eps, spine_lengths, widths, kind):
        self.r = r
        self.rho = rho
        self.eps = eps
        self.spine_lengths = tuple(spine_lengths)
        self.widths = tuple(widths)
        self.kind = kind

    def __repr__(self):
        return f"SpiralSpec(r={self.r}, kind={self.kind})"


class Rect:
    """Closed axis box given by min/max corners."""

    __slots__ = ("lo", "hi")

    def __init__(self, a: Point, b: Point):
        self.lo = Point(min(a.x, b.x), min(a.y, b.y))
        self.hi = Point(max(a.x, b.x), max(a.y, b.y))

    def contains(self, p: Point) -> bool:
        return self.lo.x <= p.x <= self.hi.x and self.lo.y <= p.y <= self.hi.y

    def area(self) -> Fraction:
        return (self.hi.x - self.lo.x) * (self.hi.y - self.lo.y)

    def center(self) -> Point:
        return midpoint(self.lo, self.hi)

    def corners(self) -> List[Point]:
        return [self.lo, Point(self.hi.x, self.lo.y), self.hi, Point(self.lo.x, self.hi.y)]

    def __repr__(self):
        return f"Rect({self.lo}..{self.hi})"


class SpiralDecomposition:
    """The 3r+2 rectangles A0,B0,C1,A1,B1,...,Cr,Ar,Br in spine order."""

    def __init__(self, spec: SpiralSpec, spine: Sequence[Point], outer: Sequence[Point],
                 rects: List[Tuple[str, int, Rect]]):
        self.spec = spec
        self.spine = tuple(spine)
        self.outer = tuple(outer)
        self.rects = rects
        self._by_key = {(label, i): rect for label, i, rect in rects}

    def rect(self, label: str, i: int) -> Rect:
        return self._by_key[(label, i)]

    def __iter__(self):
        return iter(self.rects)

    def __repr__(self):
        return f"SpiralDecomposition(r={self.spec.r}, {len(self.rects)} rects)"


def _build_spiral(lengths: Sequence[Fraction], widths: Sequence[Fraction],
                  spec: SpiralSpec) -> Tuple[RectPolygon, SpiralDecomposition]:
    r = len(lengths) - 1
    assert len(widths) == len(lengths)
    spine = [Point(0, 0)]
    for i, a in enumerate(lengths):
        d = _SPINE_DIRS[i % 4]
        spine.append(spine[-1] + a * d)
    outer: List[Optional[Point]] = [None] * (r + 2)
    outer[0] = spine[0] + widths[0] * _LEFT_NORMAL[_SPINE_DIRS[0]]
    outer[r + 1] = spine[r + 1] + widths[r] * _LEFT_NORMAL[_SPINE_DIRS[r % 4]]
    for i in range(1, r + 1):
        n_prev = _LEFT_NORMAL[_SPINE_DIRS[(i - 1) % 4]]
        n_cur = _LEFT_NORMAL[_SPINE_DIRS[i % 4]]
        outer[i] = spine[i] + widths[i] * n_cur + widths[i - 1] * n_prev
    ring = spine + list(reversed(outer))
    poly = validate(ring)
    if poly.was_reversed:
        raise GenerationFailed("spiral construction produced a clockwise ring")

    rects: List[Tuple[str, int, Rect]] = []
    for i in range(r + 1):
        d = _SPINE_DIRS[i % 4]
        n = _LEFT_NORMAL[d]
        mid = midpoint(spine[i], spine[i + 1])
        if i >= 1:
            rects.append(("C", i, Rect(spine[i], outer[i])))
        rects.append(("A", i, Rect(spine[i], mid + widths[i] * n)))
        rects.append(("B", i, Rect(mid, spine[i + 1] + widths[i] * n)))
    decomp = SpiralDecomposition(spec, spine, outer, rects)
    return poly, decomp


def _default_widths(r: int, eps: Fraction) -> List[Fraction]:
    # Strictly increasing, pairwise distinct, all < eps: keeps every pair of
    # reflex coordinates distinct so general position holds by construction.
    return [eps * (r + 2 + i) / (2 * r + 8) for i in range(r + 1)]


def coverage_spiral(r: int) -> Tuple[RectPolygon, SpiralDecomposition]:
    """The coverage lower-bound spiral P_r with its rectangle decomposition."""
    if r < 0:
        raise ValueError("r must be >= 0")
    rho = Fraction(3)
    eps = Fraction(1, 4 * r + 16)
    assert rho > 2 + (Fraction(r, 2) + 2) * eps
    # Arm-length skeleton, periodic in three (L, rho*L, L, then scale by
    # rho); the i*eps terms keep all windings separated and all coordinates
    # distinct:  1, 1, rho, 1, rho, rho^2, rho, rho^2, rho^3, rho^2, ...
    # This growth pattern is what pins every greedy beacon chain to one
    # beacon per three arms.
    lengths: List[Fraction] = []
    for i in range(r + 1):
        if i % 2 == 0:
            j = i // 2
            if j == 0:
                lengths.append(Fraction(1))
            else:
                lengths.append(rho ** (2 * ((j - 1) // 3) + 1) + j * eps)
        else:
            j = (i - 1) // 2
            if j <= 1:
                lengths.append(Fraction(1) + j * eps)
            else:
                lengths.append(rho ** (2 * ((j + 1) // 3)) + j * eps)
    widths = _default_widths(r, eps)
    spec = SpiralSpec(r, rho, eps, lengths, widths, "coverage")
    return _build_spiral(lengths, widths, spec)


def uniform_spiral(r: int) -> Tuple[RectPolygon, SpiralDecomposition]:
    """Spiral with linearly growing arms and small integer-scale coordinates.

    Used for benchmarking at large n, where the coverage spiral's
    geometrically growing coordinates would dominate the arithmetic cost.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    eps = Fraction(1, 4 * r + 16)
    lengths = [Fraction(4 + 2 * i) + i * eps for i in range(r + 1)]
    widths = _default_widths(r, Fraction(1, 2))
    spec = SpiralSpec(r, Fraction(0), eps, lengths, widths, "uniform")
    return _build_spiral(lengths, widths, spec)


def comb(k: int) -> RectPolygon:
    """Base [0, 4k-2] x [0, 11] with k fingers of width 2 up to y = 2k + 11, the
    gaps between them floored at 11, 13, ... from right to left.  The floors
    are the only reflex edges, so the kernel is the base, reached by
    clipping; kernel_oracle is cut down to it at the first reflex vertex."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = 2 * k + 11
    ring = [(0, 0), (4 * k - 2, 0)]
    for i in range(k - 1, -1, -1):
        ring += [(4 * i + 2, top), (4 * i, top)]
        if i:
            floor = 11 + 2 * (k - 1 - i)
            ring += [(4 * i, floor), (4 * i - 2, floor)]
    return validate(ring)


def _ray_contacts(poly: RectPolygon, z: Point, d: Point) -> List[Point]:
    """The boundary points on the ray z + t*d, t > 0, farthest first, by a
    scan over the edges: an edge along the ray meets it only at its ends,
    which the edges across it report."""
    hits = {}
    for e in poly.edges:
        (zl, dl), (zu, du) = ((z.x, d.x), (z.y, d.y))[::1 if e.orientation == "V" else -1]
        if dl == 0:
            continue
        t = (e.level - zl) / dl
        u = zu + t * du
        lo, hi = e.span()
        if t > 0 and lo <= u <= hi:
            hits[Point(e.level, u) if e.orientation == "V" else Point(u, e.level)] = t
    return sorted(hits, key=hits.get, reverse=True)


def greedy_cover_spiral(poly: RectPolygon, decomp: SpiralDecomposition) -> BeaconSet:
    """Greedy beacon chain along a coverage spiral.

    b1 sits in the corner square C2.  Each next beacon must lie on the
    constraint line through the blocking reflex vertex v_{3(i-1)+1} and the
    previous beacon (that line separates what the previous beacon still
    reaches), and it is pushed along that line as deep into the spiral as it
    can go while still attracting the corner the previous beacon misses.
    The middle beacons land in the A_{3i-1} rectangles of the decomposition,
    which is asserted.
    """
    if decomp.spec.kind != "coverage":
        raise NotCoverageSpiral(f"expected a coverage spiral, got {decomp.spec.kind}")
    r = decomp.spec.r
    if r < 2:
        raise NotCoverageSpiral("greedy placement needs r >= 2")
    from .attraction import attracts

    k = -(-r // 3)  # ceil(r/3)
    spine = decomp.spine
    beacons = [decomp.rect("C", 2).center()]
    for i in range(2, k + 1):
        m = 3 * (i - 1) + 1
        v = spine[m]
        witness = decomp.outer[m]  # outer corner of C_m, missed by b_{i-1}
        prev = beacons[-1]
        chosen = v
        for pt in _ray_contacts(poly, v, prev - v):
            if attracts(poly, pt, witness):
                chosen = pt
                break
        beacons.append(chosen)
        if 2 <= i <= k - 1:
            box = decomp.rect("A", 3 * i - 1)
            if not box.contains(chosen):
                raise ConstraintUnsatisfied(
                    f"greedy beacon {i} at {chosen} escaped rectangle A_{3 * i - 1}"
                )
    return BeaconSet(beacons, ["greedy"] * len(beacons), mode="cover")


# ------------------------------------------------------------------ routing


def routing_spiral(r: int) -> RectPolygon:
    """Routing lower-bound spiral: each new arm's sight line from the spine
    end clears the feasible region left for the previous beacon.

    The arm lengths grow geometrically; the separation condition is checked
    constructively and the growth factor doubled until it holds.
    """
    if r < 3:
        raise ValueError("routing spirals are defined for r >= 3")
    growth = Fraction(3)
    for _ in range(_SPIRAL_RETRIES):
        eps = Fraction(1, 4 * r + 16)
        lengths = [growth ** i + i * eps for i in range(r + 1)]
        widths = _default_widths(r, Fraction(1, 4))
        spec = SpiralSpec(r, growth, eps, lengths, widths, "routing")
        poly, decomp = _build_spiral(lengths, widths, spec)
        if _routing_separation_holds(decomp):
            return poly
        growth *= 2
    raise ConstraintUnsatisfied(
        f"routing spiral separation condition failed for r={r} after retries"
    )


def _routing_separation_holds(decomp: SpiralDecomposition) -> bool:
    """Check the incremental sight-line condition along the spine.

    For every step s the line from the spine endpoint q=v_{s+1} through
    v_{s-1} must pass strictly on the far side of the feasible corner left
    by the previous step, which is pinned near v_{s-2}: concretely the
    crossing of line(v_s, v_{s-2}) with line(v_{s+1}, v_{s-1}) must lie
    beyond v_{s-2} as seen from the inner turns, i.e. the two lines' wedge
    at their crossing leaves v_{s-2}'s quadrant empty.
    """
    spine = decomp.spine
    r = decomp.spec.r
    for s in range(3, r + 1):
        q = spine[s + 1]
        a = spine[s - 1]
        prev_q = spine[s]
        prev_a = spine[s - 2]
        # v_{s-2} must lie strictly on the opposite side of line(q, a) from
        # the previous endpoint prev_q: then every point of the previous
        # feasible wedge (which hugs the segment prev_a..a on prev_q's side)
        # is cut off by the new sight line.
        side_prev_q = (a - q).cross(prev_q - q)
        side_prev_a = (a - q).cross(prev_a - q)
        if side_prev_a == 0 or side_prev_q == 0:
            return False
        if (side_prev_a > 0) == (side_prev_q > 0):
            return False
    return True


# ------------------------------------------------------------------- random


def random_rectilinear(n: int, seed: int) -> RectPolygon:
    """Random general-position simple rectilinear polygon with n vertices.

    Grown from a rectangle by notching random convex corners.  All
    coordinates are integers and pairwise distinct per axis except along a
    common edge, which makes general position automatic.
    """
    if n < 4 or n % 2 != 0:
        raise GenerationFailed("n must be even and at least 4")
    steps = (n - 4) // 2
    rng = random.Random(seed)
    scale = 8 * (steps + 2)
    for attempt in range(_RANDOM_RETRIES):
        try:
            return _grow_polygon(steps, rng, scale)
        except GenerationFailed:
            scale *= 2
    raise GenerationFailed(f"could not generate a polygon with n={n} after {_RANDOM_RETRIES} tries")


def _grow_polygon(steps: int, rng: random.Random, scale: int) -> RectPolygon:
    w = rng.randrange(scale, 2 * scale)
    h = rng.randrange(scale, 2 * scale)
    ring: List[Tuple[int, int]] = [(0, 0), (w, 0), (w, h), (0, h)]
    used_x = {0, w}
    used_y = {0, h}
    budget = steps  # one unit per reflex vertex to add
    while budget > 0:
        # An edge dent spends two reflex vertices and creates a reflex edge;
        # a corner notch spends one and creates an isolated reflex vertex.
        if budget >= 2 and rng.random() < 0.45:
            if _dent_once(ring, used_x, used_y, rng):
                budget -= 2
                continue
        if _notch_once(ring, used_x, used_y, rng):
            budget -= 1
            continue
        raise GenerationFailed("no corner or edge admitted a modification")
    return validate(ring)


def _dent_once(ring, used_x, used_y, rng) -> bool:
    n = len(ring)
    order = list(range(n))
    rng.shuffle(order)
    for idx in order:
        a = ring[idx]
        b = ring[(idx + 1) % n]
        horizontal = a[1] == b[1]
        length = abs(b[0] - a[0]) + abs(b[1] - a[1])
        if length < 4:
            continue
        ua = (_sign(b[0] - a[0]), _sign(b[1] - a[1]))
        inward = (-ua[1], ua[0])  # interior is left of travel
        for _try in range(12):
            s1 = rng.randrange(1, length - 1)
            s2 = rng.randrange(s1 + 1, length)
            depth = rng.randrange(1, max(2, length))
            p1 = (a[0] + s1 * ua[0], a[1] + s1 * ua[1])
            p4 = (a[0] + s2 * ua[0], a[1] + s2 * ua[1])
            p2 = (p1[0] + depth * inward[0], p1[1] + depth * inward[1])
            p3 = (p4[0] + depth * inward[0], p4[1] + depth * inward[1])
            new_x = {p[0] for p in (p1, p2, p3, p4)} - {a[0], b[0]}
            new_y = {p[1] for p in (p1, p2, p3, p4)} - {a[1], b[1]}
            if new_x & used_x or new_y & used_y:
                continue
            if not _box_clear(ring, p1, p3, (idx,)):
                continue
            ring[idx + 1:idx + 1] = [p1, p2, p3, p4]
            used_x.update(p[0] for p in (p1, p2, p3, p4))
            used_y.update(p[1] for p in (p1, p2, p3, p4))
            return True
    return False


def _box_clear(ring, c1, c3, skip) -> bool:
    """The closed box with opposite corners c1 and c3 meets no edge of the
    ring except the edges whose indices are in skip."""
    x1, x2 = sorted((c1[0], c3[0]))
    y1, y2 = sorted((c1[1], c3[1]))
    n = len(ring)
    for j in range(n):
        if j in skip:
            continue
        a = ring[j]
        b = ring[(j + 1) % n]
        ex1, ex2 = sorted((a[0], b[0]))
        ey1, ey2 = sorted((a[1], b[1]))
        if ex1 <= x2 and x1 <= ex2 and ey1 <= y2 and y1 <= ey2:
            return False
    return True


def _notch_once(ring, used_x, used_y, rng) -> bool:
    n = len(ring)
    order = list(range(n))
    rng.shuffle(order)
    for idx in order:
        prev = ring[(idx - 1) % n]
        cur = ring[idx]
        nxt = ring[(idx + 1) % n]
        da = (cur[0] - prev[0], cur[1] - prev[1])
        dl = (nxt[0] - cur[0], nxt[1] - cur[1])
        if _turn(da, dl) <= 0:
            continue  # only convex corners are notched
        len_a = abs(da[0]) + abs(da[1])
        len_l = abs(dl[0]) + abs(dl[1])
        if len_a < 3 or len_l < 3:
            continue
        ua = (_sign(da[0]), _sign(da[1]))
        ul = (_sign(dl[0]), _sign(dl[1]))
        for _try in range(12):
            s1 = rng.randrange(1, len_a)
            s2 = rng.randrange(1, len_l)
            c1 = (cur[0] - s1 * ua[0], cur[1] - s1 * ua[1])
            c3 = (cur[0] + s2 * ul[0], cur[1] + s2 * ul[1])
            c2 = (c1[0] + s2 * ul[0], c1[1] + s2 * ul[1])
            new_x = {c[0] for c in (c1, c2, c3)} - {cur[0], prev[0], nxt[0]}
            new_y = {c[1] for c in (c1, c2, c3)} - {cur[1], prev[1], nxt[1]}
            if new_x & used_x or new_y & used_y:
                continue
            # The two edges at the notched corner bound the bite.
            if not _box_clear(ring, cur, c2, ((idx - 1) % n, idx)):
                continue
            ring[idx:idx + 1] = [c1, c2, c3]
            used_x.update(c[0] for c in (c1, c2, c3))
            used_y.update(c[1] for c in (c1, c2, c3))
            return True
    return False


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _turn(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def random_x_monotone(n: int, seed: int) -> RectPolygon:
    """Random x-monotone rectilinear polygon with n vertices."""
    if n < 4 or n % 2 != 0:
        raise GenerationFailed("n must be even and at least 4")
    rng = random.Random(seed)
    steps = (n - 4) // 2
    last = None
    for _ in range(_RANDOM_RETRIES):
        try:
            return _grow_monotone(steps, rng)
        except (GenerationFailed, NotRectilinear, NotSimple, GeneralPositionViolated, ValueError) as exc:
            last = exc
    raise GenerationFailed(f"monotone generation failed after {_RANDOM_RETRIES} tries: {last}")


def _grow_monotone(steps: int, rng: random.Random) -> RectPolygon:
    k_top = rng.randrange(0, steps + 1)
    k_bot = steps - k_top
    span = 4 * (steps + 2)
    xs = sorted(rng.sample(range(1, 4 * span), k_top + k_bot))
    width = 4 * span + (xs[-1] if xs else 0)
    xs_top = sorted(rng.sample(xs, k_top))
    xs_bot = sorted(set(xs) - set(xs_top))
    top_band = list(range(3 * span, 6 * span))
    bot_band = list(range(1, 2 * span))
    top_heights = rng.sample(top_band, k_top + 1)
    bot_heights = rng.sample(bot_band, k_bot + 1)
    # Bottom chain left to right, then up the right side, top chain right to
    # left, down the left side.
    ring: List[Tuple[int, int]] = []
    x0 = 0
    y = bot_heights[0]
    ring.append((x0, y))
    for i, bx in enumerate(xs_bot):
        ring.append((bx, y))
        y = bot_heights[i + 1]
        ring.append((bx, y))
    ring.append((width, y))
    ty = top_heights[-1]
    ring.append((width, ty))
    for i in range(len(xs_top) - 1, -1, -1):
        tx = xs_top[i]
        ring.append((tx, ty))
        ty = top_heights[i]
        ring.append((tx, ty))
    ring.append((x0, ty))
    poly = validate(ring)
    mono = poly.monotonicity()
    if not mono["x_monotone"]:
        raise GenerationFailed("construction unexpectedly non-monotone")
    return poly
