"""Constructive beacon placement: coverage and routing upper bounds.

cover() places at most ceil(r/3) beacons, all at reflex vertices, following
the safe-cut recursion with the full no-safe-cut case analysis.
cover_monotone() places at most floor(r/4)+1 beacons in a monotone polygon.
route_beacons() places at most floor(3r/4) beacons so that every pair of
points can be routed through them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InternalCaseError, NotAChord, NotMonotone, TooManyReflexVertices
from .geometry import Point, midpoint
from .kernel import in_all_cones
from .polygon import (
    _INWARD,
    REFLEX,
    Chord,
    RectPolygon,
    _cut_rings,
    _cyclic,
    _piece,
    chord_beside,
    chord_sides,
    chords_on_line,
    # count_reflex_below stays importable from here, where perfbench's traced run wraps it.
    count_reflex_below,  # noqa: F401
    iter_normal_cuts,
    pocket,
    pocket_side,
    split,
    vertex_chord,
)


class BeaconSet:
    """Placed beacons plus a provenance tag per beacon."""

    def __init__(self, beacons: Sequence[Point], tags: Optional[Sequence[str]] = None,
                 trace=None, mode: str = ""):
        self.beacons = list(beacons)
        self.tags = list(tags) if tags is not None else ["other"] * len(self.beacons)
        self.trace = trace
        self.mode = mode

    def __len__(self):
        return len(self.beacons)

    def __iter__(self):
        return iter(self.beacons)

    def __repr__(self):
        return f"BeaconSet({len(self.beacons)} beacons, mode={self.mode!r})"


class TraceNode:
    """One decision of the placement recursion, for debugging and reports."""

    __slots__ = ("label", "r", "detail", "children", "beacons")

    def __init__(self, label: str, r: int, detail: str = ""):
        self.label = label
        self.r = r
        self.detail = detail
        self.children: List["TraceNode"] = []
        self.beacons: List[Point] = []

    def child(self, node: "TraceNode") -> "TraceNode":
        self.children.append(node)
        return node

    def as_dict(self):
        return {
            "label": self.label,
            "r": self.r,
            "detail": self.detail,
            "beacons": [[str(b.x), str(b.y)] for b in self.beacons],
            "children": [c.as_dict() for c in self.children],
        }


def _ceil3(x: int) -> int:
    return -(-x // 3)


def _level_along(p: Point, o: str) -> Tuple[Fraction, Fraction]:
    """p's coordinates across and along orientation o."""
    return (p.y, p.x) if o == "H" else (p.x, p.y)


def _dedup(points: Sequence[Point]) -> List[Point]:
    seen = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


# ------------------------------------------------------------------ coverage


def cover_base(poly: RectPolygon) -> BeaconSet:
    """One beacon guarding a polygon with at most three reflex vertices."""
    if poly.r > 3:
        raise TooManyReflexVertices(f"base case needs r <= 3, got {poly.r}")
    redges = poly.reflex_edges()
    if poly.r == 0:
        b = min(poly.vertices, key=lambda p: p.key())
        tag = "corner"
    elif not redges:
        # No reflex edge: the kernel is the whole polygon.
        b = min((poly.vertices[i] for i in poly.reflex_indices), key=lambda p: p.key())
        tag = "reflex_vertex"
    elif len(redges) == 1:
        e = redges[0]
        b = min((e.a, e.b), key=lambda p: p.key())
        tag = "reflex_vertex"
    elif len(redges) == 2:
        shared = {redges[0].a, redges[0].b} & {redges[1].a, redges[1].b}
        if len(shared) != 1:
            raise InternalCaseError("two reflex edges in a base polygon must share a vertex")
        b = shared.pop()
        tag = "reflex_vertex"
    else:
        raise InternalCaseError("more than two reflex edges with r <= 3")
    if not in_all_cones(poly, b):
        raise InternalCaseError(f"base beacon {b} fell outside the kernel")
    return BeaconSet([b], [tag], mode="cover")


def find_safe_cut(poly: RectPolygon) -> Optional[Chord]:
    """The chord of a normal cut splitting the ceil(r/3) budget additively,
    or None.

    Scans every combinatorial class of normal cuts (horizontal bands first,
    in increasing level order, then vertical), first hit wins.
    """
    r = poly.r
    target = _ceil3(r)
    for orientation in ("H", "V"):
        for chord, r_minus in iter_normal_cuts(poly, orientation):
            r_plus = r - r_minus
            if r_minus >= 1 and r_plus >= 1 and _ceil3(r_minus) + _ceil3(r_plus) == target:
                assert _ceil3(r_minus) + _ceil3(r_plus) == _ceil3(r)
                return chord
    return None


def cover(poly: RectPolygon, trace: Optional[TraceNode] = None) -> BeaconSet:
    """Guard the polygon with at most max(1, ceil(r/3)) beacons.

    For r >= 1 every beacon sits at a reflex vertex of the input polygon.
    """
    root = trace if trace is not None else TraceNode("root", poly.r)
    beacons = _cover_rec(poly, root)
    beacons = _dedup(beacons)
    if len(beacons) > max(1, _ceil3(poly.r)):
        raise InternalCaseError(
            f"cover placed {len(beacons)} beacons, budget {max(1, _ceil3(poly.r))}"
        )
    if poly.r >= 1:
        refl = {poly.vertices[i] for i in poly.reflex_indices}
        for b in beacons:
            if b not in refl:
                raise InternalCaseError(f"cover beacon {b} is not a reflex vertex")
    bs = BeaconSet(beacons, ["reflex_vertex" if poly.r >= 1 else "corner"] * len(beacons),
                   trace=root, mode="cover")
    return bs


def _cover_rec(poly: RectPolygon, node: TraceNode) -> List[Point]:
    r = poly.r
    if r <= 3:
        node.child(TraceNode("base", r))
        bs = cover_base(poly)
        node.beacons.extend(bs.beacons)
        return list(bs.beacons)
    chord = find_safe_cut(poly)
    if chord is not None:
        minus, plus = split(poly, chord)
        child = node.child(TraceNode("safe_cut", r, repr(chord)))
        a = _cover_rec(minus, child.child(TraceNode("safe_minus", minus.r)))
        b = _cover_rec(plus, child.child(TraceNode("safe_plus", plus.r)))
        return a + b
    return _cover_no_safe_cut(poly, node)


class _OrientationRetry(Exception):
    """The case identities failed in this frame; try a mirrored one."""


class _Frame(namedtuple("_Frame", "name sx sy")):
    """The senses of x and y in which the no-safe-cut cases, written for one
    orientation, are read; named by the symmetry that maps that orientation
    there.  Levels across a chord of orientation o read with sense s, sy for
    H and sx for V: chord_sides(...)[::s] and split(...)[::s] are (below,
    above).
    """

    __slots__ = ()

    def senses(self, o: str) -> Tuple[int, int]:
        """The senses across and along orientation o."""
        return (self.sy, self.sx) if o == "H" else (self.sx, self.sy)

    def key(self, p: Point, o: str) -> Tuple[Fraction, Fraction]:
        """p's level across o and its coordinate along o, read in this frame."""
        (level, along), (s, t) = _level_along(p, o), self.senses(o)
        return level if s > 0 else -level, along if t > 0 else -along

    def sides(self, chord: Chord):
        return chord_sides(chord)[::self.senses(chord.axis)[0]]

    def split(self, poly: RectPolygon, chord: Chord) -> Tuple[RectPolygon, RectPolygon]:
        return split(poly, chord)[::self.senses(chord.axis)[0]]

    def reflex(self, poly: RectPolygon, chord: Chord) -> Tuple[int, int]:
        """Reflex vertices strictly below and strictly above a chord."""
        return tuple(poly.reflex_counts(side.s, side.t)[0] for side in self.sides(chord))


_FRAMES = (_Frame("id", 1, 1), _Frame("mirror_x", -1, 1), _Frame("rot180", -1, -1), _Frame("mirror_y", 1, -1))


def _reflex_points(poly: RectPolygon, side) -> List[Point]:
    """The reflex vertices strictly inside a Side, in CCW order."""
    return [poly.vertices[k] for k in _cyclic(range(poly.n), side.s, side.t) if poly.classes[k] == REFLEX]


def _first_reflex(poly: RectPolygon, chord: Chord, f: _Frame, above: bool) -> Point:
    """The reflex vertex strictly below (or above) the chord, on that side
    of it, whose level is nearest the chord's; on ties the least along it."""
    o = chord.axis
    level = f.key(chord.a, o)[0]
    keys = [(f.key(p, o), p) for p in _reflex_points(poly, f.sides(chord)[above])]
    gaps = [(k[0] - level if above else level - k[0], k[1], p) for k, p in keys]
    gaps = [g for g in gaps if g[0] > 0]
    if not gaps:
        raise InternalCaseError(f"no reflex vertex {'above' if above else 'below'} the cut")
    return min(gaps, key=lambda g: g[:2])[2]


def _cover_split(poly: RectPolygon, chord: Chord, f: _Frame, node: TraceNode, label: str) -> List[Point]:
    """Split along a chord, its sides read in frame f, and cover both
    pieces under a new child of node, labelled label, whose detail is the
    chord."""
    minus, plus = f.split(poly, chord)
    child = node.child(TraceNode(label, poly.r, repr(chord)))
    return (_cover_rec(minus, child.child(TraceNode("minus", minus.r)))
            + _cover_rec(plus, child.child(TraceNode("plus", plus.r))))


def _cover_no_safe_cut(poly: RectPolygon, node: TraceNode) -> List[Point]:
    """The paper's case analysis, tried in up to four frames in turn.  Only
    the frame that runs leaves a trace node; its detail says which frames
    gave up before it, and why."""
    r = poly.r
    if r % 3 == 1:
        raise InternalCaseError("no safe cut although r = 1 mod 3")
    ncs = list(iter_normal_cuts(poly, "H"))
    gave_up = []
    for f in _FRAMES:
        # The frame's 1-cuts, r_below = 1 mod 3 and at least 4: the lowest
        # of the least r_below, then the westmost.
        keys = [(rm if f.sy > 0 else r - rm, f.sy * chord.level,
                 chord.lo if f.sx > 0 else -chord.hi, chord) for chord, rm in ncs]
        keys = [k for k in keys if k[0] % 3 == 1 and k[0] >= 4]
        if not keys:
            continue
        child = TraceNode(f"no_safe[{f.name}]", r, "; ".join(gave_up))
        try:
            beacons = _no_safe_cases(poly, min(keys, key=lambda k: k[:3])[3], f, child)
        except _OrientationRetry as exc:
            gave_up.append(f"{f.name} gave up: {exc}")
            continue
        node.child(child)
        return beacons
    raise InternalCaseError(f"no orientation admits the case analysis: {'; '.join(gave_up)}")


def _no_safe_cases(poly: RectPolygon, c: Chord, f: _Frame, node: TraceNode) -> List[Point]:
    v = _first_reflex(poly, c, f, False)
    vi = poly.vertex_index(v)
    # v must bound a horizontal reflex edge, else a cut just below it would
    # have been safe.
    hedges = [poly.edges[(vi - 1) % poly.n], poly.edges[vi]]
    hedge = next((e for e in hedges if e.orientation == "H"), None)
    if hedge is None or hedge.kind != "reflex":
        raise InternalCaseError(
            f"first reflex vertex {v} below the 1-cut has no horizontal reflex edge"
        )
    # The interior lies above the edge in this frame: it faces up.
    if hedge.sense == f.sy:
        return _no_safe_top(poly, c, hedge, f, node)
    return _no_safe_bottom(poly, c, hedge, f, node)


def _no_safe_top(poly: RectPolygon, c: Chord, e, f: _Frame, node: TraceNode) -> List[Point]:
    r = poly.r
    v1, v2 = sorted((e.a, e.b), key=lambda p: f.key(p, "H"))  # west, east
    i1, i2 = poly.vertex_index(v1), poly.vertex_index(v2)
    # Reflex vertices below the chords just below v1 and v2.
    k1 = f.reflex(poly, chord_beside(poly, i1, "H", -f.sy))[0]
    k2 = f.reflex(poly, chord_beside(poly, i2, "H", -f.sy))[0]
    m1, m2 = k1 % 3, k2 % 3
    if (m1 + m2) % 3 != 2:
        raise _OrientationRetry(f"top case: m1+m2 = {m1}+{m2} != 2 mod 3")
    if {m1, m2} == {0, 2}:
        # Case (a): cut through the endpoint above the 2-side.
        if (k1 if m1 == 0 else k2) != 0:
            raise InternalCaseError("case (a): 0-side lobe not empty")
        return _cover_split(poly, vertex_chord(poly, i2 if m1 == 0 else i1, "H"), f, node, "top(a)")
    if not (m1 == 1 and m2 == 1):
        raise InternalCaseError(f"top case: unexpected (m1, m2) = {(m1, m2)}")
    # Case (b): both side lobes hold exactly one reflex vertex.
    if k1 != 1 or k2 != 1:
        raise InternalCaseError("case (b): lobes must hold exactly one reflex vertex")
    e1 = next(x for x in (poly.edges[(i1 - 1) % poly.n], poly.edges[i1]) if x.orientation == "V")
    e2 = next(x for x in (poly.edges[(i2 - 1) % poly.n], poly.edges[i2]) if x.orientation == "V")
    if e1.kind != "reflex" or e2.kind != "reflex":
        # One wall is not a reflex edge: a single beacon at the opposite
        # endpoint guards everything below c.
        b_at = v2 if e1.kind != "reflex" else v1
        minus, plus = f.split(poly, c)
        if not in_all_cones(minus, b_at):
            raise InternalCaseError(f"case (b): beacon {b_at} not in kernel of P_minus")
        child = node.child(TraceNode("top(b-wall)", r, f"beacon {b_at}"))
        child.beacons.append(b_at)
        return [b_at] + _cover_rec(plus, child.child(TraceNode("plus", plus.r)))
    chords = {"d1": vertex_chord(poly, i1, "V"), "d2": vertex_chord(poly, i2, "V")}
    counts = {}
    for name, chord in chords.items():
        left = f.reflex(poly, chord)[0]
        counts[name] = (left, r - 1 - left)
    # (b)(i): some side of some d_i is divisible by three.
    for name, chord in chords.items():
        left, right = counts[name]
        if left % 3 == 0 or right % 3 == 0:
            return _cover_split(poly, chord, f, node, f"top(b-i,{name})")
    residues = {counts[name][0] % 3 for name in counts} | {counts[name][1] % 3 for name in counts}
    if r % 3 == 2:
        if residues != {2}:
            raise InternalCaseError(f"case (b)(ii): residues {residues}")
        return _cover_split(poly, chords["d1"], f, node, "top(b-ii)")
    # (b)(iii): r = 0 mod 3 and every residue is 1.
    if r % 3 != 0 or residues != {1}:
        raise InternalCaseError(f"case (b)(iii) preconditions: r={r}, residues={residues}")
    if counts["d1"][0] != 1 or counts["d2"][1] != 1:
        raise InternalCaseError("case (b)(iii): outer strips must hold exactly one reflex vertex")
    w = _first_reflex(poly, c, f, True)
    wi = poly.vertex_index(w)
    w_hedge = next(x for x in (poly.edges[(wi - 1) % poly.n], poly.edges[wi])
                   if x.orientation == "H")
    candidates = [wi]
    if w_hedge.kind == "reflex":
        other = w_hedge.b if w_hedge.a == w else w_hedge.a
        candidates.append(poly.vertex_index(other))
    for ci in candidates:
        try:
            chord = vertex_chord(poly, ci, "V")
        except NotAChord:
            continue
        left = f.reflex(poly, chord)[0]
        if left % 3 == 0 or (r - 1 - left) % 3 == 0:
            break
    else:
        raise InternalCaseError("case (b)(iii): no vertical cut at w/w' balances mod 3")
    # The cut must land on the reflex edge e: its lower end lies on e's line.
    el_lo, el_hi = e.span()
    if not (el_lo <= chord.level <= el_hi and (chord.lo, chord.hi)[::f.sy][0] == e.level):
        raise InternalCaseError(
            f"case (b)(iii): vertical cut at {poly.vertices[ci]} does not land on e"
        )
    result = _cover_split(poly, chord, f, node, "top(b-iii)")
    # Coverage of the strip left of d1 relies on a beacon landing at an
    # endpoint of e1; the recursion is expected to produce one.
    e1_pts = {e1.a, e1.b}
    if not any(b in e1_pts for b in result):
        raise InternalCaseError("case (b)(iii): no beacon at an endpoint of e1")
    return result


def _no_safe_bottom(poly: RectPolygon, c: Chord, e, f: _Frame, node: TraceNode) -> List[Point]:
    r = poly.r
    v, vprime = sorted((e.a, e.b), key=lambda p: f.key(p, "H"))  # west, east
    vi, vpi = poly.vertex_index(v), poly.vertex_index(vprime)
    c1 = chord_beside(poly, vi, "H", -f.sy)
    c2 = chord_beside(poly, vpi, "H", f.sy)
    m1 = f.reflex(poly, c1)[0] % 3
    m2 = f.reflex(poly, c2)[0] % 3
    if r % 3 != 0:
        raise InternalCaseError(f"bottom case with r = {r} not divisible by 3")
    if (m2 - m1) % 3 != 1:
        # The count identity holds when the 1-cut descended on v's side;
        # otherwise the mirrored frame applies.
        raise _OrientationRetry(f"bottom case identity: (m1,m2)={(m1, m2)}")
    if m2 == 0:
        # (m1, m2) = (2, 0): nothing reflex above the cut over v'; the
        # vertical cut through v balances the budget exactly.
        if f.reflex(poly, c2)[1] != 0:
            raise InternalCaseError("bottom (2,0): reflex vertices above the c2 cut")
        chord = vertex_chord(poly, vi, "V")
        left = f.reflex(poly, chord)[0]
        right = r - 1 - left
        if left % 3 != 0 or right % 3 != 2:
            raise _OrientationRetry(f"bottom (2,0): sides {(left, right)}")
        return _cover_split(poly, chord, f, node, "bottom(2,0)")
    if (m1, m2) == (0, 1):
        raise InternalCaseError("bottom (0,1): a vertical cut on e would have been safe")
    if (m1, m2) != (1, 2):
        raise InternalCaseError(f"bottom case: unexpected (m1,m2)={(m1, m2)}")
    below = _reflex_points(poly, f.sides(c1)[0])
    if len(below) != 1:
        raise InternalCaseError(f"bottom case: {len(below)} reflex vertices below e")
    w = below[0]
    if not f.key(w, "H")[1] < f.key(v, "H")[1]:
        raise _OrientationRetry("bottom case: lone reflex vertex is not west of v")
    c_v = vertex_chord(poly, vi, "H")
    minus_h, _ = f.split(poly, c_v)
    d_v = vertex_chord(poly, vi, "V")
    minus_v, _ = f.split(poly, d_v)
    if minus_h.r % 3 != 0 or minus_v.r % 3 != 0 or minus_h.r + minus_v.r != r:
        raise InternalCaseError(
            f"bottom case counts: {minus_h.r} + {minus_v.r} vs r={r}"
        )
    child = node.child(TraceNode("bottom-overlap", r, f"{c_v!r} & {d_v!r}"))
    a = _cover_rec(minus_h, child.child(TraceNode("overlap_h", minus_h.r)))
    b = _cover_rec(minus_v, child.child(TraceNode("overlap_v", minus_v.r)))
    return _dedup(a + b)


# ---------------------------------------------------------- monotone coverage


def cover_monotone(poly: RectPolygon, trace: Optional[TraceNode] = None) -> BeaconSet:
    """Guard a monotone polygon with at most floor(r/4) + 1 beacons, swept
    west to east (frame id) if x-monotone, else north to south (mirror_y)."""
    mono = poly.monotonicity()
    if mono["x_monotone"]:
        f, o = _FRAMES[0], "V"
    elif mono["y_monotone"]:
        f, o = _FRAMES[3], "H"
    else:
        raise NotMonotone("polygon is neither x- nor y-monotone")
    root = trace if trace is not None else TraceNode("mono_root", poly.r)
    beacons = _dedup(_cover_monotone_rec(poly, f, o, root))
    if len(beacons) > poly.r // 4 + 1:
        raise InternalCaseError(
            f"monotone cover used {len(beacons)} beacons, budget {poly.r // 4 + 1}"
        )
    return BeaconSet(beacons, ["monotone"] * len(beacons), trace=root, mode="cover")


def _cover_monotone_rec(poly: RectPolygon, f: _Frame, o: str, node: TraceNode) -> List[Point]:
    redges = poly.reflex_edges()
    if len(redges) <= 1:
        if redges:
            b = midpoint(redges[0].a, redges[0].b)
        else:
            b = min(poly.vertices, key=lambda p: f.key(p, o))
        if not in_all_cones(poly, b):
            raise InternalCaseError("monotone base beacon outside the kernel")
        node.child(TraceNode("mono_base", poly.r))
        node.beacons.append(b)
        return [b]
    # The far ends of the reflex edges along the sweep, in sweep order.
    far = {e.index: max(e.a, e.b, key=lambda p: f.key(p, o)) for e in redges}
    rights = sorted(far.values(), key=lambda p: f.key(p, o))
    e1 = next(e for e in redges if far[e.index] == rights[0])
    chord = vertex_chord(poly, poly.vertex_index(rights[1]), o)
    minus, plus = f.split(poly, chord)
    if len(minus.reflex_edges()) > 1:
        raise InternalCaseError("left part of the monotone cut kept two reflex edges")
    b = midpoint(e1.a, e1.b)
    if not in_all_cones(minus, b):
        raise InternalCaseError("monotone beacon fell outside the left kernel")
    child = node.child(TraceNode("mono_cut", poly.r, repr(chord)))
    child.beacons.append(b)
    return [b] + _cover_monotone_rec(plus, f, o, child.child(TraceNode("mono_rest", plus.r)))


# ------------------------------------------------------------------- routing


# What pocket() would build, counted on the boundary: the vertices of poly
# strictly inside the pocket's chain are s, s+1, ..., t-1 (cyclic).
PocketSummary = namedtuple("PocketSummary", "r n monotone s t")


def _side_monotone(poly: RectPolygon, side) -> bool:
    """Is the piece on a Side of a chord xy-monotone?  Read off poly's
    prefix counts: when both chord ends are convex corners of the piece, as
    an end inside an edge always is and the end at v of a pocket's chord
    is, every vertex strictly inside the side keeps its class, so the
    piece's reflex edges are those of poly with both ends inside."""
    return poly.reflex_counts(side.s, side.t - 1)[1] == 0


def pocket_summary(poly: RectPolygon, e_idx: int, v_idx: int) -> PocketSummary:
    """r, n and xy-monotonicity of pocket(poly, e_idx, v_idx), without building it.

    The cut extends e past v and, in general position, ends inside an edge.
    v and that far end are convex corners of the pocket, so _side_monotone
    reads its monotonicity.
    """
    chord, side = pocket_side(poly, e_idx, v_idx)
    if chord.ends[0][1] and chord.ends[1][1]:
        raise InternalCaseError(f"pocket cut from {poly.vertices[v_idx]} ends at a vertex")
    s, t, _ = side
    r, _ = poly.reflex_counts(s, t)
    return PocketSummary(r, (t - s) % poly.n + 2, _side_monotone(poly, side), s, t)


def _pockets(poly: RectPolygon):
    """(edge index, endpoint vertex index, summary) for every reflex edge end."""
    for e in poly.reflex_edges():
        for vi in (e.index, (e.index + 1) % poly.n):
            yield e.index, vi, pocket_summary(poly, e.index, vi)


def find_xy_monotone_pocket(poly: RectPolygon) -> Tuple[int, int]:
    """(edge index, endpoint vertex index) whose pocket is xy-monotone."""
    if not poly.reflex_edges():
        raise NotAChord("polygon has no reflex edge; it is already xy-monotone")
    e_idx, v_idx, summary = min(_pockets(poly), key=lambda t: (t[2].n, t[0], t[1]))
    pk = pocket(poly, e_idx, v_idx)
    if not pk.is_xy_monotone() or (pk.r, pk.n) != (summary.r, summary.n):
        raise InternalCaseError(f"chosen pocket {pk} is not xy-monotone or not {summary}")
    return e_idx, v_idx


def route_beacons(poly: RectPolygon, trace: Optional[TraceNode] = None) -> BeaconSet:
    """Place at most floor(3r/4) beacons routing every pair of points."""
    root = trace if trace is not None else TraceNode("route_root", poly.r)
    beacons = _dedup(_route_rec(poly, root))
    if len(beacons) > (3 * poly.r) // 4:
        raise InternalCaseError(
            f"routing used {len(beacons)} beacons, budget {(3 * poly.r) // 4}"
        )
    return BeaconSet(beacons, ["route"] * len(beacons), trace=root, mode="route")


def _pocket_wraps(poly: RectPolygon, e_idx: int, pk: PocketSummary) -> bool:
    """Does the pocket of e summarized by pk reach strictly into e's interior
    half-plane?

    A wrapping complement pocket invalidates the monotone-sweep reasoning,
    so the selection below avoids it whenever it matters.
    """
    e = poly.edges[e_idx]
    level = e.level
    # The pocket's two other corners lie on e's line.
    for k in range(pk.s, pk.s + pk.n - 2):
        coord = _level_along(poly.vertices[k % poly.n], e.orientation)[0]
        if (coord > level) if e.sense > 0 else (coord < level):
            return True
    return False


def _other_end(poly: RectPolygon, e_idx: int, v_idx: int) -> int:
    """The index of the end of edge e_idx that is not vertex v_idx."""
    return (e_idx + 1) % poly.n if v_idx == e_idx else e_idx


def _select_routing_pocket(poly: RectPolygon) -> Optional[Tuple[int, int, PocketSummary]]:
    """Pick (edge, endpoint, pocket summary) with a monotone pocket, avoiding
    sweep pitfalls; the caller builds the pocket and checks it.

    Preference order: a pocket with at least one reflex vertex (that branch
    recurses the whole complement, so its shape is irrelevant); then a
    rectangle pocket whose complement pocket stays on its side of the edge
    line (the sweep argument needs this); a rectangle pocket with a trivial
    complement comes along for free with either.
    """
    summaries = {(e_idx, vi): pk for e_idx, vi, pk in _pockets(poly)}
    monos = [(e_idx, vi, pk) for (e_idx, vi), pk in summaries.items() if pk.monotone]
    if not monos:
        raise InternalCaseError("no xy-monotone pocket exists")
    rich = [(e_idx, vi, pk) for e_idx, vi, pk in monos if pk.r >= 1]
    if rich:
        return min(rich, key=lambda t: (-t[2].r, t[2].n, t[0], t[1]))
    for e_idx, vi, pk in sorted(monos, key=lambda t: (t[2].n, t[0], t[1])):
        if not _pocket_wraps(poly, e_idx, summaries[e_idx, _other_end(poly, e_idx, vi)]):
            return e_idx, vi, pk
    return None  # caller falls back to the generic pair scheme


def _route_rec(poly: RectPolygon, node: TraceNode) -> List[Point]:
    if poly.is_xy_monotone():
        node.child(TraceNode("route_monotone", poly.r))
        return []
    selected = _select_routing_pocket(poly)
    if selected is None:
        return _route_pair_fallback(poly, node)
    # Route through the pocket A at end v of reflex edge e, xy-monotone as
    # its summary says.
    e_idx, v_idx, summary = selected
    r = poly.r
    a_piece, b_piece, c_piece, p, qpt = _three_pieces(poly, e_idx, v_idx)
    if not a_piece.is_xy_monotone() or (a_piece.r, a_piece.n) != (summary.r, summary.n):
        raise InternalCaseError(f"chosen pocket {a_piece} is not xy-monotone or not {summary}")
    if a_piece.r >= 1:
        child = node.child(TraceNode("route(rA>=1)", r, f"b1={p} b2={qpt}"))
        child.beacons.extend([p, qpt])
        return ([p, qpt]
                + _route_rec(b_piece, child.child(TraceNode("B", b_piece.r)))
                + _route_rec(c_piece, child.child(TraceNode("C", c_piece.r))))
    # r(A) = 0: A is a rectangle; b1 goes infinitesimally inward of e at v'.
    e = poly.edges[e_idx]
    b1 = _beacon_above(poly, e, poly.vertices[_other_end(poly, e_idx, v_idx)])
    child = node.child(TraceNode("route(rA=0)", r, f"b1={b1}"))
    child.beacons.append(b1)
    out = [b1] + _route_rec(b_piece, child.child(TraceNode("B", b_piece.r)))
    if c_piece.r == 0:
        return out
    return out + _route_sweep_c(c_piece, e, qpt, child)


def _far_end(chord: Chord, w: Point) -> Point:
    """The end of a chord that is not w."""
    return chord.a if chord.b == w else chord.b


def _three_pieces(poly: RectPolygon, e_idx: int, v_idx: int):
    """(A, B, C, p, q): poly cut along reflex edge e's line at both its ends.

    A and C are the pockets at v and at v', e's other end, and B, between
    them, holds e; p and q are the far ends of their chords.  The chords
    extend e both ways, so one walk along both cuts all three pieces.
    """
    vp_idx = _other_end(poly, e_idx, v_idx)
    chord_a, side_a = pocket_side(poly, e_idx, v_idx)
    chord_c, side_c = pocket_side(poly, e_idx, vp_idx)
    # B leaves the chord at v' where the pocket there returns to it.
    a, b, c = (0, side_a.first), (1, 1 - side_c.first), (1, side_c.first)
    rings = _cut_rings(poly, [chord_a, chord_c], (a, b, c))
    return (_piece(*rings[a]), _piece(*rings[b]), _piece(*rings[c]),
            _far_end(chord_a, poly.vertices[v_idx]), _far_end(chord_c, poly.vertices[vp_idx]))


def _route_pair_fallback(poly: RectPolygon, node: TraceNode) -> List[Point]:
    """Three-piece split with beacons at both cut endpoints, all recursed.

    Sound for any reflex edge: the cut segments are convex edges of their
    pieces, each beacon lies on the shared boundary of two pieces, and the
    two beacons attract each other straight along the edge's line.  Costs
    one beacon more than the sweep machinery, so it only runs when no safe
    pocket choice exists and only on a split whose budget still fits.
    """
    budget = (3 * poly.r) // 4
    for e in poly.reflex_edges():
        for vi in (e.index, (e.index + 1) % poly.n):
            a_piece, b_piece, c_piece, p_pt, q_pt = _three_pieces(poly, e.index, vi)
            if 2 + sum((3 * piece.r) // 4 for piece in (a_piece, b_piece, c_piece)) > budget:
                continue
            child = node.child(TraceNode("route(pair-fallback)", poly.r, f"b1={p_pt} b2={q_pt}"))
            child.beacons.extend([p_pt, q_pt])
            return ([p_pt, q_pt]
                    + _route_rec(a_piece, child.child(TraceNode("A", a_piece.r)))
                    + _route_rec(b_piece, child.child(TraceNode("B", b_piece.r)))
                    + _route_rec(c_piece, child.child(TraceNode("C", c_piece.r))))
    raise InternalCaseError("no pocket choice and no in-budget pair split; routing is stuck")


def _beacon_above(poly: RectPolygon, e, vprime: Point) -> Point:
    """v' + delta * inward(e), delta half the least gap between distinct
    levels of e's orientation, which the edge index rows hold times D and
    sorted.  v' is a reflex end of e, so the step off e's line stays
    strictly between the levels and inside poly."""
    scale, index = poly.edge_index()
    levels = list(dict.fromkeys(index[e.orientation][0]))
    delta = Fraction(min(b - a for a, b in zip(levels, levels[1:])), 2 * scale)
    b1 = vprime + _INWARD[e.direction] * delta
    if poly.contains(b1) != "in":
        raise InternalCaseError(f"the beacon {b1} just above v' is not inside")
    return b1


# The C sweep runs in the frame of the reflex edge e it starts from, of
# orientation o and sense s: a level is a coordinate across o,
# and the upper side of a chord of orientation o is the side towards e's
# line, so split(...)[::s] is (lower piece, upper piece), and chord_sides(...)[::s]
# their sides.  A band's chord lies between vertex levels, so both its ends
# lie inside edges and _side_monotone reads the upper piece's monotonicity.


def _route_sweep_c(c_piece: RectPolygon, e, qpt: Point, node: TraceNode) -> List[Point]:
    """Sweep C away from e's line, from its chord at v' on, until
    xy-monotonicity breaks.

    Callers guarantee that C stays on its side of the cut line (no
    wrap-around), so the chord is C's top edge and the swept upper piece is
    meaningful.

    The sweep always stops.  C is pocket(poly, e, v'), cut along poly's own
    chord, with r >= 1, and the r(A) = 0 branch runs only when no
    xy-monotone pocket with r >= 1 exists, so C is not xy-monotone, and
    nor is the last band's upper piece: C less a rectangle at its far level.
    """
    o, sense = e.orientation, e.sense
    top_level = _level_along(qpt, o)[0]
    coords = [_level_along(p, o) for p in c_piece.vertices]
    if any(sense * (level - top_level) > 0 for level, _ in coords):
        raise InternalCaseError("sweep entered a wrapped complement pocket")
    top = [u for level, u in coords if level == top_level]
    interval = (min(top), max(top))
    levels = sorted({x.level for x in c_piece.edges if x.orientation == o and x.level != top_level},
                    reverse=sense > 0)
    prev_level = top_level
    for level in levels:
        over = [c for c in chords_on_line(c_piece, o, (prev_level + level) / 2)
                if c.lo < interval[1] and interval[0] < c.hi]
        if len(over) != 1 or not _side_monotone(c_piece, chord_sides(over[0])[::sense][1]):
            # The event that broke monotonicity sits at the band's top level.
            return _route_c_violation(c_piece, e, prev_level, interval, qpt, node)
        interval = (over[0].lo, over[0].hi)
        prev_level = level
    raise InternalCaseError("the sweep of C ran out of levels, so C is xy-monotone")


def _route_c_violation(c_piece: RectPolygon, e, level: Fraction,
                       interval, qpt: Point, node: TraceNode) -> List[Point]:
    o = e.orientation
    lo_i, hi_i = interval
    parallel = [x for x in c_piece.edges
                if x.orientation == o and x.level == level and x.kind == "reflex"
                and x.span()[0] <= hi_i and lo_i <= x.span()[1]]
    if parallel:
        if len(parallel) > 1:
            raise InternalCaseError("two reflex edges parallel to e stop the sweep at once")
        return _route_c_three(c_piece, e, parallel[0], qpt, node)
    # A violator across o: its end w sits at this level.
    coords = [_level_along(p, o) for p in c_piece.vertices]
    w_cands = [i for i in c_piece.reflex_indices if coords[i][0] == level and lo_i <= coords[i][1] <= hi_i]
    if len(w_cands) != 1:
        raise InternalCaseError(f"sweep stop: {len(w_cands)} candidate vertices at {level}")
    wi = w_cands[0]
    chord = vertex_chord(c_piece, wi, o)
    b2 = _far_end(chord, c_piece.vertices[wi])
    c2, c1 = split(c_piece, chord)[::e.sense]
    if not c1.is_xy_monotone():
        raise InternalCaseError("upper sweep piece is not monotone (perpendicular case)")
    child = node.child(TraceNode("route(C two-piece)", c_piece.r, f"b2={b2} b*={qpt}"))
    child.beacons.extend([b2, qpt])
    return [b2, qpt] + _route_rec(c2, child.child(TraceNode("C2", c2.r)))


def _route_c_three(c_piece: RectPolygon, e, eprime, qpt: Point, node: TraceNode) -> List[Point]:
    """Split C along the full sweep segment through a reflex edge e' parallel
    to e, by _three_pieces at e''s first end along o.  The upper piece holds
    qpt; the two others, in order along o, are C2 and C3.  b2 and b3, the
    far ends, are in order along o too."""
    w = min((eprime.index, (eprime.index + 1) % c_piece.n),
            key=lambda i: _level_along(c_piece.vertices[i], e.orientation)[1])
    *pieces, b2, b3 = _three_pieces(c_piece, eprime.index, w)
    upper = next(piece for piece in pieces if piece.vertex_index(qpt) is not None)
    if not upper.is_xy_monotone():
        raise InternalCaseError("upper sweep piece is not monotone (parallel case)")
    beacons = [b2, b3] + ([qpt] if upper.r >= 2 else [])
    child = node.child(TraceNode("route(C three-piece)", c_piece.r,
                                 f"b2={b2} b3={b3} bstar={'yes' if upper.r >= 2 else 'no'}"))
    child.beacons.extend(beacons)
    below = [piece for piece in pieces if piece is not upper]
    return beacons + [b for k, piece in enumerate(below)
                      for b in _route_rec(piece, child.child(TraceNode(f"C{k + 2}", piece.r)))]
