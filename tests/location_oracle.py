"""Independent oracle for point location: boundary first, then parity.

locate_boundary looks the point up among the vertices and then tests it
against every closed edge; contains answers 'on' through that and otherwise
counts the vertical edges that a ray from the point towards +x crosses.
RectPolygon.contains and RectPolygon.locate_boundary, which bisect the
polygon's integer-scaled edge index instead, are checked against them.
"""


def on_axis_segment(p, a, b):
    """True iff p lies on the closed axis-parallel segment [a, b]."""
    if a.x == b.x:
        if p.x != a.x:
            return False
        lo, hi = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
        return lo <= p.y <= hi
    if a.y == b.y:
        if p.y != a.y:
            return False
        lo, hi = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
        return lo <= p.x <= hi
    raise ValueError("segment is not axis-parallel")


def locate_boundary(poly, p):
    """(edge index, at_start_vertex) for a boundary point, else None."""
    idx = poly.vertex_index(p)
    if idx is not None:
        return (idx, True)
    for e in poly.edges:
        if on_axis_segment(p, e.a, e.b):
            return (e.index, False)
    return None


def contains(poly, p):
    """'in', 'on' or 'out' (closed polygon; exact)."""
    if locate_boundary(poly, p) is not None:
        return "on"
    inside = False
    for e in poly.edges:
        if e.orientation != "V":
            continue
        y1, y2 = e.a.y, e.b.y
        lo, hi = (y1, y2) if y1 <= y2 else (y2, y1)
        if e.a.x > p.x and lo <= p.y < hi:
            inside = not inside
    return "in" if inside else "out"
