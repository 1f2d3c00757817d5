"""Constructive beacon placement: coverage and routing upper bounds.

cover() places at most ceil(r/3) beacons, all at reflex vertices, cutting
along safe cuts and, where no cut is safe, by the paper's top case, read
in a frame where the reflex edge it starts from faces the 1-cut.
cover_monotone() places at most floor(r/4)+1 beacons in a monotone polygon.
route_beacons() places at most floor(3r/4) beacons so that every pair of
points can be routed through them.

Each placement runs its steps on one work list (_walk): a step places its
beacons on its trace node and returns the tasks for the pieces it cut.  The
trace is the one record of the placed beacons (_placed).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InternalCaseError, NotMonotone, TooManyReflexVertices
from .geometry import Point, midpoint
from .kernel import in_all_cones
from .polygon import (
    _INWARD,
    REFLEX,
    Chord,
    RectPolygon,
    _assert_chord,
    _cut_rings,
    _cyclic,
    _mapped_piece,
    chord_sides,
    chords_on_line,
    # count_reflex_below stays importable from here, where perfbench's traced run wraps it.
    count_reflex_below,  # noqa: F401
    iter_normal_cuts,
    # pocket stays importable from here, where perfbench's traced run wraps it.
    pocket,  # noqa: F401
    pocket_walk,
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
    """One decision of a placement, for debugging and reports."""

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


def _walk(*task) -> None:
    """Run a task, (step, *args), and the tasks that each step returns for
    the pieces it cut, depth-first, in the order the steps return them."""
    tasks = [task]
    while tasks:
        step, *args = tasks.pop()
        tasks.extend(reversed(step(*args)))


def _branch(node: TraceNode, label: str, r: int, detail: str, beacons: Sequence[Point], step, pieces) -> list:
    """Put beacons on a new child of node, labelled label, and return one
    task (step, *args, piece_node) per (name, args) of pieces: args[0] is
    the piece, and piece_node a new child of that child, labelled name."""
    child = node.child(TraceNode(label, r, detail))
    child.beacons.extend(beacons)
    return [(step, *args, child.child(TraceNode(name, args[0].r))) for name, args in pieces]


def _placed(root: TraceNode) -> List[Point]:
    """The beacons on the trace under root, in preorder, each once."""
    placed, nodes = {}, [root]
    while nodes:
        node = nodes.pop()
        placed.update(dict.fromkeys(node.beacons))
        nodes.extend(reversed(node.children))
    return list(placed)


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
    in increasing level order, then vertical), first hit wins.  Each class
    is decided on its count alone; only the one returned builds its chord.
    """
    r = poly.r
    target = _ceil3(r)
    for orientation in ("H", "V"):
        for cut in iter_normal_cuts(poly, orientation):
            r_minus = cut.r_minus
            if 1 <= r_minus < r and _ceil3(r_minus) + _ceil3(r - r_minus) == target:
                return cut.chord
    return None


def cover(poly: RectPolygon, trace: Optional[TraceNode] = None) -> BeaconSet:
    """Guard the polygon with at most max(1, ceil(r/3)) beacons.

    For r >= 1 every beacon sits at a reflex vertex of the input polygon.
    """
    root = trace if trace is not None else TraceNode("root", poly.r)
    _walk(_cover_rec, poly, root)
    beacons = _placed(root)
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


def _cover_rec(poly: RectPolygon, node: TraceNode) -> list:
    """The step of cover's walk at poly, whose trace node is node."""
    r = poly.r
    if r <= 3:
        node.child(TraceNode("base", r))
        node.beacons.extend(cover_base(poly).beacons)
        return []
    chord = find_safe_cut(poly)
    if chord is not None:
        return _cover_split(poly, chord, _FRAMES[0], node, "safe_cut", ("safe_minus", "safe_plus"))
    return _cover_no_safe_cut(poly, node)


class _Frame(namedtuple("_Frame", "name sx sy h")):
    """The axes and senses in which the no-safe-cut cases, written for one
    orientation, are read; named by the symmetry that maps that orientation
    there.  h is the orientation of the polygon that plays horizontal.
    Levels across a chord of orientation o read with sense s, sy for H and
    sx for V: chord_sides(...)[::s] and split(...)[::s] are (below, above).
    """

    __slots__ = ()

    def axis(self, o: str) -> str:
        """The orientation of the polygon that plays orientation o of the
        frame, and back."""
        return o if self.h == "H" else "HV"[o == "H"]

    def senses(self, o: str) -> Tuple[int, int]:
        """The senses across and along orientation o of the polygon."""
        return (self.sy, self.sx) if o == "H" else (self.sx, self.sy)

    def key(self, p: Point, o: str) -> Tuple[Fraction, Fraction]:
        """p's level across the frame's orientation o and its coordinate along it."""
        o = self.axis(o)
        (level, along), (s, t) = _level_along(p, o), self.senses(o)
        return level if s > 0 else -level, along if t > 0 else -along

    def sides(self, chord: Chord):
        return chord_sides(chord)[::self.senses(chord.axis)[0]]

    def split(self, poly: RectPolygon, chord: Chord) -> Tuple[RectPolygon, RectPolygon]:
        return split(poly, chord)[::self.senses(chord.axis)[0]]

    def reflex(self, poly: RectPolygon, chord: Chord) -> int:
        """The number of reflex vertices strictly below a chord."""
        below = self.sides(chord)[0]
        return poly.reflex_counts(below.s, below.t)[0]


_FRAMES = (_Frame("id", 1, 1, "H"), _Frame("mirror_x", -1, 1, "H"), _Frame("rot180", -1, -1, "H"),
           _Frame("mirror_y", 1, -1, "H"), _Frame("mirror_diag", 1, 1, "V"), _Frame("rot90", 1, -1, "V"),
           _Frame("mirror_anti", -1, -1, "V"), _Frame("rot270", -1, 1, "V"))


def _reflex_points(poly: RectPolygon, side) -> List[Point]:
    """The reflex vertices strictly inside a Side, in CCW order."""
    return [poly.vertices[k] for k in _cyclic(range(poly.n), side.s, side.t) if poly.classes[k] == REFLEX]


def _first_reflex(poly: RectPolygon, chord: Chord, f: _Frame, above: bool) -> Point:
    """The reflex vertex strictly below (or above) the chord, on that side
    of it, whose level is nearest the chord's; on ties the least along it."""
    o = f.axis(chord.axis)
    level = f.key(chord.a, o)[0]
    keys = [(f.key(p, o), p) for p in _reflex_points(poly, f.sides(chord)[above])]
    gaps = [(k[0] - level if above else level - k[0], k[1], p) for k, p in keys]
    gaps = [g for g in gaps if g[0] > 0]
    if not gaps:
        raise InternalCaseError(f"no reflex vertex {'above' if above else 'below'} the cut")
    return min(gaps, key=lambda g: g[:2])[2]


def _cover_split(poly: RectPolygon, chord: Chord, f: _Frame, node: TraceNode, label: str,
                 halves: Tuple[str, str] = ("minus", "plus")) -> list:
    """Split along a chord, its sides read in frame f, and return the tasks
    that cover both pieces under a new child of node, labelled label, whose
    detail is the chord; the pieces' nodes are labelled halves, below side
    first."""
    minus, plus = f.split(poly, chord)
    return _branch(node, label, poly.r, repr(chord), [], _cover_rec, zip(halves, ((minus,), (plus,))))


def _cover_no_safe_cut(poly: RectPolygon, node: TraceNode) -> list:
    """The paper's top case, read in the first frame, in _FRAMES order,
    that has a 1-cut c whose v bounds a horizontal reflex edge facing c.
    Only that frame leaves a trace node; its detail names the frames before
    it, where v's edge faced away from the 1-cut.

    c is a normal cut of the frame's horizontal with r_below = 1 mod 3 and
    at least 4: the lowest of the least r_below, then the westmost; v is
    the first reflex vertex below c.  The paper's bottom case, where v's
    edge faces away from c, is read as the top case in a frame of the other
    sense or axis.  With no such frame cover fails loudly ("no orientation
    admits the case analysis"); it returns no unchecked beacons."""
    r = poly.r
    if r % 3 == 1:
        raise InternalCaseError("no safe cut although r = 1 mod 3")
    classes, gave_up = {}, []
    for f in _FRAMES:
        if f.h not in classes:
            classes[f.h] = list(iter_normal_cuts(poly, f.h))
        # Every class as (r_below, level, along, chord), read in the frame.
        s, t = f.senses(f.h)
        rows = [(rm if s > 0 else r - rm, s * chord.level, chord.lo if t > 0 else -chord.hi, chord)
                for chord, rm in classes[f.h]]
        cuts = [k for k in rows if k[0] % 3 == 1 and k[0] >= 4]
        if not cuts:
            continue
        c = min(cuts, key=lambda k: k[:3])[3]
        v = _first_reflex(poly, c, f, False)
        vi = poly.vertex_index(v)
        # v must bound a horizontal reflex edge, else a cut just below it
        # would have been safe.
        e = next((x for x in (poly.edges[(vi - 1) % poly.n], poly.edges[vi]) if x.orientation == f.h), None)
        if e is None or e.kind != "reflex":
            raise InternalCaseError(f"first reflex vertex {v} below the 1-cut has no horizontal reflex edge")
        if e.sense != s:
            gave_up.append(f"{f.name} gave up: v = {v}: its reflex edge faces away from the 1-cut")
            continue
        return _no_safe_top(poly, c, f, e, rows, node.child(TraceNode(f"no_safe[{f.name}]", r, "; ".join(gave_up))))
    raise InternalCaseError(f"no orientation admits the case analysis: {'; '.join(gave_up)}")


def _no_safe_top(poly: RectPolygon, c: Chord, f: _Frame, e, rows, node: TraceNode) -> list:
    """The top case at 1-cut c, whose first reflex vertex below bounds the
    horizontal reflex edge e from v1 to v2, facing c; rows are the frame's
    classes of its horizontal as (r_below, level, along, chord).

    k1 and k2 count the reflex vertices below the classes of the band just
    below e that span v1 and v2, and the case needs m1 + m2 = 2 mod 3
    (mi = ki mod 3).  That holds when v lies on the floor of the strip that
    sweeps down from c.  The strip is the rectangle under c down to the
    first level where its cross-section changes; it cannot just end there,
    as r_below(c) >= 4.  A wall stepping out or a floor stepping in, one
    reflex vertex and one convex one, would leave one chord below, whose
    lobe holds r_below(c) - 1 = 0 mod 3 reflex vertices: a safe cut.  Two
    reflex vertices on the floor other than the ends of one edge would be
    joined by a chord through the interior, which general position
    excludes.  So if v is on the floor, the floor is e, facing c, and just
    below it the strip's cross-section is the two classes beside v1 and
    v2, each cutting off a lobe inside P-(c): r_below(c) = 2 + k1 + k2 =
    1 mod 3.  A lobe that winds back up past the floor can put v off it;
    when v's edge then faces away from c, the frame gave up before this
    case ran.  When it faces c, the identity is not proved; no census
    polygon broke it, and it stays a guard.

    Case (b) with both walls reflex reads two counts: the reflex vertices
    west of d1, the vertical chord up from v1, and east of d2, the one up
    from v2.  The wall e1 at v1 is a reflex edge, so its lower end u1 is
    reflex, and as k1 = 1, u1 is the only reflex vertex in the lobe under
    the class beside v1.  Take the vertical normal cuts of the bands just
    west and just east of v1 that extend d1.  Both end on the same edge
    above, because d1 ends inside an edge (general position).  The
    boundary between their lower ends runs through u1, up e1 and along e,
    so their west counts are L and L + 2, and d1's two sides hold L + 1
    and r - L - 2.  As r != 1 mod 3, a normal cut is safe when both sides
    are >= 1 and one side is 0 mod 3.  So "no safe cut" forces
    r != 2 mod 3, and L = 0 or L = 2 mod 3; the same holds for R, the
    count east of the cut just east of v2.  Hence d1's east side and d2's
    west side are never 0 mod 3, and the paper's case (b)(ii), for
    r = 2 mod 3, never runs.  When (b)(i) finds neither outer side
    divisible by three, L = R = 0: both outer sides hold one reflex vertex
    and r = 0 mod 3, which are (b)(iii)'s preconditions."""
    r, vo = poly.r, f.axis("V")
    v1, v2 = sorted((e.a, e.b), key=lambda p: f.key(p, "H"))  # west, east
    i1, i2 = poly.vertex_index(v1), poly.vertex_index(v2)
    level = f.key(v1, "H")[0]
    band = max(k[1] for k in rows if k[1] < level)
    k1, k2 = (next(k[0] for k in rows if k[1] == band and k[3].lo <= along <= k[3].hi)
              for along in (_level_along(p, f.h)[1] for p in (v1, v2)))
    m1, m2 = k1 % 3, k2 % 3
    if (m1 + m2) % 3 != 2:
        raise InternalCaseError(f"top case: m1+m2 = {m1}+{m2} != 2 mod 3")
    if {m1, m2} == {0, 2}:
        # Case (a): cut through the endpoint above the 2-side.
        if (k1 if m1 == 0 else k2) != 0:
            raise InternalCaseError("case (a): 0-side lobe not empty")
        return _cover_split(poly, vertex_chord(poly, i2 if m1 == 0 else i1, f.h), f, node, "top(a)")
    # Case (b): m1 = m2 = 1, the only pair left; both side lobes hold
    # exactly one reflex vertex.
    if k1 != 1 or k2 != 1:
        raise InternalCaseError("case (b): lobes must hold exactly one reflex vertex")
    e1 = next(x for x in (poly.edges[(i1 - 1) % poly.n], poly.edges[i1]) if x.orientation == vo)
    e2 = next(x for x in (poly.edges[(i2 - 1) % poly.n], poly.edges[i2]) if x.orientation == vo)
    if e1.kind != "reflex" or e2.kind != "reflex":
        # One wall is not a reflex edge: a single beacon at the opposite
        # endpoint guards everything below c.
        b_at = v2 if e1.kind != "reflex" else v1
        minus, plus = f.split(poly, c)
        if not in_all_cones(minus, b_at):
            raise InternalCaseError(f"case (b): beacon {b_at} not in kernel of P_minus")
        return _branch(node, "top(b-wall)", r, f"beacon {b_at}", [b_at], _cover_rec, [("plus", (plus,))])
    d1, d2 = vertex_chord(poly, i1, vo), vertex_chord(poly, i2, vo)
    left, right = f.reflex(poly, d1), r - 1 - f.reflex(poly, d2)
    # (b)(i): the outer side of d1 or of d2 is divisible by three.
    if left % 3 == 0:
        return _cover_split(poly, d1, f, node, "top(b-i,d1)")
    if right % 3 == 0:
        return _cover_split(poly, d2, f, node, "top(b-i,d2)")
    # (b)(iii): no other case is left, as the docstring argues.
    if r % 3 != 0 or (left, right) != (1, 1):
        raise InternalCaseError(f"case (b)(iii) preconditions: r={r}, outer sides {(left, right)}")
    w = _first_reflex(poly, c, f, True)
    wi = poly.vertex_index(w)
    w_hedge = next(x for x in (poly.edges[(wi - 1) % poly.n], poly.edges[wi])
                   if x.orientation == f.h)
    candidates = [wi]
    if w_hedge.kind == "reflex":
        other = w_hedge.b if w_hedge.a == w else w_hedge.a
        candidates.append(poly.vertex_index(other))
    for ci in candidates:
        chord = vertex_chord(poly, ci, vo)
        west = f.reflex(poly, chord)
        if west % 3 == 0 or (r - 1 - west) % 3 == 0:
            break
    else:
        raise InternalCaseError("case (b)(iii): no vertical cut at w/w' balances mod 3")
    # The cut must land on the reflex edge e: its lower end lies on e's line.
    el_lo, el_hi = e.span()
    if not (el_lo <= chord.level <= el_hi and (chord.lo, chord.hi)[::f.senses(vo)[1]][0] == e.level):
        raise InternalCaseError(
            f"case (b)(iii): vertical cut at {poly.vertices[ci]} does not land on e"
        )
    return _cover_split(poly, chord, f, node, "top(b-iii)") + [(_beacon_on_e1, node, e1)]


def _beacon_on_e1(node: TraceNode, e1) -> list:
    """The task queued after both pieces of (b)(iii): coverage of the strip
    left of d1 relies on a beacon landing at an endpoint of e1, and the
    pieces, under node, are expected to place one."""
    if not {e1.a, e1.b}.intersection(_placed(node)):
        raise InternalCaseError("case (b)(iii): no beacon at an endpoint of e1")
    return []


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
    _walk(_cover_monotone_rec, poly, f, o, root)
    beacons = _placed(root)
    if len(beacons) > poly.r // 4 + 1:
        raise InternalCaseError(
            f"monotone cover used {len(beacons)} beacons, budget {poly.r // 4 + 1}"
        )
    return BeaconSet(beacons, ["monotone"] * len(beacons), trace=root, mode="cover")


def _cover_monotone_rec(poly: RectPolygon, f: _Frame, o: str, node: TraceNode) -> list:
    """The step of cover_monotone's walk at poly, whose trace node is node."""
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
        return []
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
    return _branch(node, "mono_cut", poly.r, repr(chord), [b], _cover_monotone_rec, [("mono_rest", (plus, f, o))])


# ------------------------------------------------------------------- routing


# One row of a routing node's pocket table, for end v of reflex edge e: the
# chord that extends e through v, on e's line at level from lo to hi, which
# leaves v forward (towards hi) or not and ends inside edge far; the Side of
# it that is the pocket (s, t, first, from pocket_walk); and the pocket's r,
# n and xy-monotonicity, counted on the boundary: what pocket() would build.
PocketRow = namedtuple("PocketRow", "level lo hi forward far s t first r n monotone")


def _side_monotone(poly: RectPolygon, s: int, t: int) -> bool:
    """Is the piece on the Side (s, t, _) of a chord xy-monotone?  Read off
    poly's prefix counts: when both chord ends are convex corners of the
    piece, as an end inside an edge always is and the end at v of a
    pocket's chord is, every vertex strictly inside the side keeps its
    class, so the piece's reflex edges are those of poly with both ends
    inside."""
    return poly.reflex_counts(s, t - 1)[1] == 0


def _row(poly: RectPolygon, e_idx: int, v_idx: int, level: Fraction, lo: Fraction, hi: Fraction,
         forward: bool, far: int) -> PocketRow:
    """The row of end v of reflex edge e for its chord, counted on poly's
    boundary."""
    s, t, first = pocket_walk(e_idx, v_idx, forward, (far, False))
    return PocketRow(level, lo, hi, forward, far, s, t, first, poly.reflex_counts(s, t)[0],
                     (t - s) % poly.n + 2, _side_monotone(poly, s, t))


def _row_chord(poly: RectPolygon, e_idx: int, v_idx: int, row: PocketRow) -> Chord:
    """The located chord of a row."""
    ends = ((v_idx, True), (row.far, False))
    return Chord(poly.edges[e_idx].orientation, row.level, row.lo, row.hi, ends if row.forward else ends[::-1])


def _pocket_rows(poly: RectPolygon) -> dict:
    """{(e, v): PocketRow} for both ends v of every reflex edge e, each
    chord shot and checked afresh: the table of the routing root."""
    rows = {}
    for e in poly.reflex_edges():
        for vi in (e.index, (e.index + 1) % poly.n):
            c = vertex_chord(poly, vi, e.orientation)
            forward = c.ends[0] == (vi, True)
            far, at_vertex = c.ends[forward]
            if at_vertex:
                raise InternalCaseError(f"pocket cut from {poly.vertices[vi]} ends at a vertex")
            rows[e.index, vi] = _row(poly, e.index, vi, c.level, c.lo, c.hi, forward, far)
    return rows


def _carried_pieces(poly: RectPolygon, rows: dict, chords: Sequence[Chord], starts) -> dict:
    """{start: (piece, its pocket table)} for the pieces that _cut_rings
    cuts poly into along chords that lie on one line, each table carried
    over from poly's table rows without shooting a chord again.

    A piece's reflex edges are those of poly with both ends strictly inside
    one of its boundary walks, so each of its rows has a row of poly, whose
    chord runs from the same vertex the same way.  That chord lies inside
    poly but for its ends.  If it meets no cut chord, it lies in one piece,
    inside it but for its ends, and ends at the same point of poly's
    boundary, on the part of the same edge that the piece keeps: it is the
    piece's chord as it stands, so it needs no second _assert_chord; the
    first checked it when it was shot, or when it was carried across a cut.
    A cut chord ends inside edges across its line, so a chord that crosses
    it ends on an edge along that line, which no cut chord splits: the edge
    lies wholly in another piece.  So the chord crosses a cut chord just
    when the piece keeps nothing of the edge it ends on, and then it
    crosses one, as the cut chords lie on one line.  The piece's chord
    ends there, inside the piece's edge along that cut chord, and
    _assert_chord checks it.  Every row's pocket is counted on the piece's
    own prefix counts.
    """
    out = {}
    for start, ring in _cut_rings(poly, chords, starts).items():
        piece, parent, edge_of = _mapped_piece(ring)
        table = {}
        for e in piece.reflex_edges():
            for vi in (e.index, (e.index + 1) % piece.n):
                pv = parent[vi]
                row = rows[parent[e.index], pv]
                level, lo, hi, forward = row.level, row.lo, row.hi, row.forward
                far = edge_of(row.far)
                crossing = far is None
                if crossing:
                    k = _crossed(chords, e.orientation, level, lo, hi)
                    if k is None:
                        raise InternalCaseError(f"the chord of {poly.vertices[pv]} leaves its piece")
                    far = edge_of(~k)
                    lo, hi = (lo, chords[k].level) if forward else (chords[k].level, hi)
                table[e.index, vi] = carried = _row(piece, e.index, vi, level, lo, hi, forward, far)
                if crossing:
                    _assert_chord(piece, _row_chord(piece, e.index, vi, carried))
        out[start] = piece, table
    return out


def _crossed(chords: Sequence[Chord], o: str, level: Fraction, lo: Fraction, hi: Fraction) -> Optional[int]:
    """The index of the cut chord that the chord of orientation o at level
    from lo to hi crosses, else None."""
    for k, cut in enumerate(chords):
        if cut.axis != o and cut.lo < level < cut.hi and lo < cut.level < hi:
            return k
    return None


def route_beacons(poly: RectPolygon, trace: Optional[TraceNode] = None) -> BeaconSet:
    """Place at most floor(3r/4) beacons routing every pair of points."""
    root = trace if trace is not None else TraceNode("route_root", poly.r)
    _walk(_route_rec, poly, _pocket_rows(poly), root)
    beacons = _placed(root)
    if len(beacons) > (3 * poly.r) // 4:
        raise InternalCaseError(
            f"routing used {len(beacons)} beacons, budget {(3 * poly.r) // 4}"
        )
    return BeaconSet(beacons, ["route"] * len(beacons), trace=root, mode="route")


def _pocket_wraps(poly: RectPolygon, e_idx: int, pk) -> bool:
    """Does the pocket of e whose row is pk reach strictly into e's
    interior half-plane?

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


def _select_routing_pocket(poly: RectPolygon, rows: dict) -> Tuple[str, int, int]:
    """The routing move at poly, (label, e, v), read off its pocket table
    alone: the caller cuts at end v of reflex edge e and checks the pieces.

    The rules, first that applies: a monotone pocket with at least one
    reflex vertex, route(rA>=1), which routes the whole complement, so its
    shape is irrelevant; a monotone rectangle pocket whose complement pocket
    stays on its side of the edge line, route(rA=0), as the sweep argument
    needs; else the first row, in table order, whose pair split fits
    floor(3r/4), route(pair-fallback).  The pair split places a beacon at
    each cut end and routes all three pieces.  It is sound for any reflex
    edge: the cut segments are convex edges of their pieces, each beacon
    lies on the shared boundary of two pieces, and the two beacons attract
    each other straight along the edge's line.  It costs one beacon more
    than the sweep, so it comes last.  Its pieces' counts are the rows'
    r(A) and r(C), and r(B) = r - r(A) - r(C) - 2, as both cuts straighten
    v and v' in B.
    """
    monos = [(e_idx, vi, row) for (e_idx, vi), row in rows.items() if row.monotone]
    if not monos:
        raise InternalCaseError("no xy-monotone pocket exists")
    rich = [(e_idx, vi, pk) for e_idx, vi, pk in monos if pk.r >= 1]
    if rich:
        e_idx, vi, _ = min(rich, key=lambda t: (-t[2].r, t[2].n, t[0], t[1]))
        return "route(rA>=1)", e_idx, vi
    for e_idx, vi, pk in sorted(monos, key=lambda t: (t[2].n, t[0], t[1])):
        if not _pocket_wraps(poly, e_idx, rows[e_idx, _other_end(poly, e_idx, vi)]):
            return "route(rA=0)", e_idx, vi
    for (e_idx, vi), row in rows.items():
        r_c = rows[e_idx, _other_end(poly, e_idx, vi)].r
        if 2 + sum(3 * k // 4 for k in (row.r, poly.r - row.r - r_c - 2, r_c)) <= 3 * poly.r // 4:
            return "route(pair-fallback)", e_idx, vi
    raise InternalCaseError("no pocket choice and no in-budget pair split; routing is stuck")


def _route_rec(poly: RectPolygon, rows: dict, node: TraceNode) -> list:
    """The step of route_beacons' walk at poly, whose pocket table is rows:
    the move that _select_routing_pocket reads off the table, cutting only
    that split."""
    if poly.is_xy_monotone():
        node.child(TraceNode("route_monotone", poly.r))
        return []
    label, e_idx, v_idx = _select_routing_pocket(poly, rows)
    row_a, row_c = rows[e_idx, v_idx], rows[e_idx, _other_end(poly, e_idx, v_idx)]
    a, b, c, p, qpt = _three_pieces(poly, rows, e_idx, v_idx)
    counts = (row_a.r, poly.r - row_a.r - row_c.r - 2, row_c.r)
    if (a[0].r, b[0].r, c[0].r) != counts:
        raise InternalCaseError(f"the split at {poly.vertices[v_idx]} does not hold the table's counts {counts}")
    if label == "route(pair-fallback)":
        return _branch(node, label, poly.r, f"b1={p} b2={qpt}", [p, qpt], _route_rec, zip("ABC", (a, b, c)))
    # Route through the pocket A at end v of reflex edge e, xy-monotone as
    # its row says.
    if not a[0].is_xy_monotone() or a[0].n != row_a.n:
        raise InternalCaseError(f"chosen pocket {a[0]} is not xy-monotone or not {row_a}")
    if label == "route(rA>=1)":
        return _branch(node, label, poly.r, f"b1={p} b2={qpt}", [p, qpt], _route_rec, zip("BC", (b, c)))
    # r(A) = 0: A is a rectangle; b1 goes infinitesimally inward of e at v'.
    # C's sweep runs under the same node, after B's whole subtree.
    e = poly.edges[e_idx]
    b1 = _beacon_above(poly, e, poly.vertices[_other_end(poly, e_idx, v_idx)])
    tasks = _branch(node, label, poly.r, f"b1={b1}", [b1], _route_rec, [("B", b)])
    if c[0].r == 0:
        return tasks
    return tasks + [(_route_sweep_c, *c, e, qpt, node.children[-1])]


def _far_end(chord: Chord, w: Point) -> Point:
    """The end of a chord that is not w."""
    return chord.a if chord.b == w else chord.b


def _three_pieces(poly: RectPolygon, rows: dict, e_idx: int, v_idx: int):
    """(A, B, C, p, q): poly cut along reflex edge e's line at both its ends,
    each piece as (piece, its pocket table), carried over from poly's
    table rows.

    A and C are the pockets at v and at v', e's other end, and B, between
    them, holds e; p and q are the far ends of their chords.  The chords
    extend e both ways, so one walk along both cuts all three pieces.
    """
    vp_idx = _other_end(poly, e_idx, v_idx)
    row_a, row_c = rows[e_idx, v_idx], rows[e_idx, vp_idx]
    chord_a, chord_c = _row_chord(poly, e_idx, v_idx, row_a), _row_chord(poly, e_idx, vp_idx, row_c)
    # B leaves the chord at v' where the pocket there returns to it.
    a, b, c = (0, row_a.first), (1, 1 - row_c.first), (1, row_c.first)
    pieces = _carried_pieces(poly, rows, [chord_a, chord_c], (a, b, c))
    return (pieces[a], pieces[b], pieces[c],
            _far_end(chord_a, poly.vertices[v_idx]), _far_end(chord_c, poly.vertices[vp_idx]))


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


def _route_sweep_c(c_piece: RectPolygon, c_rows: dict, e, qpt: Point, node: TraceNode) -> list:
    """The step of route_beacons' walk that sweeps C away from e's line,
    from its chord at v' on, until xy-monotonicity breaks.

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
        if len(over) != 1 or not _side_monotone(c_piece, *chord_sides(over[0])[::sense][1][:2]):
            # The event that broke monotonicity sits at the band's top level.
            return _route_c_violation(c_piece, c_rows, e, prev_level, interval, qpt, node)
        interval = (over[0].lo, over[0].hi)
        prev_level = level
    raise InternalCaseError("the sweep of C ran out of levels, so C is xy-monotone")


def _route_c_violation(c_piece: RectPolygon, c_rows: dict, e, level: Fraction,
                       interval, qpt: Point, node: TraceNode) -> list:
    o = e.orientation
    lo_i, hi_i = interval
    parallel = [x for x in c_piece.edges
                if x.orientation == o and x.level == level and x.kind == "reflex"
                and x.span()[0] <= hi_i and lo_i <= x.span()[1]]
    if parallel:
        if len(parallel) > 1:
            raise InternalCaseError("two reflex edges parallel to e stop the sweep at once")
        return _route_c_three(c_piece, c_rows, e, parallel[0], qpt, node)
    # A violator across o: its end w sits at this level.
    coords = [_level_along(p, o) for p in c_piece.vertices]
    w_cands = [i for i in c_piece.reflex_indices if coords[i][0] == level and lo_i <= coords[i][1] <= hi_i]
    if len(w_cands) != 1:
        raise InternalCaseError(f"sweep stop: {len(w_cands)} candidate vertices at {level}")
    wi = w_cands[0]
    # The one chord through w, read off the line at w's level.
    chord = next(c for c in chords_on_line(c_piece, o, level) if (wi, True) in c.ends)
    b2 = _far_end(chord, c_piece.vertices[wi])
    starts = [(0, side.first) for side in chord_sides(chord)]
    pieces = _carried_pieces(c_piece, c_rows, [chord], starts)
    (c2, c2_rows), (c1, _) = [pieces[start] for start in starts][::e.sense]
    if not c1.is_xy_monotone():
        raise InternalCaseError("upper sweep piece is not monotone (perpendicular case)")
    return _branch(node, "route(C two-piece)", c_piece.r, f"b2={b2} b*={qpt}", [b2, qpt], _route_rec,
                   [("C2", (c2, c2_rows))])


def _route_c_three(c_piece: RectPolygon, c_rows: dict, e, eprime, qpt: Point, node: TraceNode) -> list:
    """Split C along the full sweep segment through a reflex edge e' parallel
    to e, by _three_pieces at e''s first end along o.  The upper piece holds
    qpt; the two others, in order along o, are C2 and C3.  b2 and b3, the
    far ends, are in order along o too."""
    w = min((eprime.index, (eprime.index + 1) % c_piece.n),
            key=lambda i: _level_along(c_piece.vertices[i], e.orientation)[1])
    *pieces, b2, b3 = _three_pieces(c_piece, c_rows, eprime.index, w)
    upper, _ = next(piece for piece in pieces if piece[0].vertex_index(qpt) is not None)
    if not upper.is_xy_monotone():
        raise InternalCaseError("upper sweep piece is not monotone (parallel case)")
    below = [piece for piece in pieces if piece[0] is not upper]
    detail = f"b2={b2} b3={b3} bstar={'yes' if upper.r >= 2 else 'no'}"
    return _branch(node, "route(C three-piece)", c_piece.r, detail, [b2, b3] + ([qpt] if upper.r >= 2 else []),
                   _route_rec, zip(("C2", "C3"), below))
