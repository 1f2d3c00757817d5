"""Independent oracle for the first boundary contact of a segment.

General cross-product intersection against every edge, written without
using that the edges are axis-parallel.  rectbeacon.polygon.boundary_hits
is checked against it.
"""


def first_hit(poly, z, b):
    """First boundary event on the open segment (z, b].

    Returns (t, point, kind, payload) with kind 'vertex' (payload: index) or
    'edge' (payload: edge index), or None when z->b is event-free.
    """
    d = b - z
    best = None  # (t, kind_rank, point, kind, payload)
    for e in poly.edges:
        ev = e.b - e.a
        denom = d.cross(ev)
        if denom != 0:
            w = e.a - z
            t = w.cross(ev) / denom
            if not (0 < t <= 1):
                continue
            s = w.cross(d) / denom
            if not (0 <= s <= 1):
                continue
            pt = z + t * d
            if s == 0:
                cand = (t, 0, pt, "vertex", e.index)
            elif s == 1:
                cand = (t, 0, pt, "vertex", (e.index + 1) % poly.n)
            else:
                cand = (t, 1, pt, "edge", e.index)
        else:
            if d.cross(e.a - z) != 0:
                continue  # parallel, different line
            dd = d.dot(d)
            cand = None
            for vtx, idx in ((e.a, e.index), (e.b, (e.index + 1) % poly.n)):
                t = (vtx - z).dot(d) / dd
                if 0 < t <= 1 and (cand is None or t < cand[0]):
                    cand = (t, 0, vtx, "vertex", idx)
            if cand is None:
                continue
        if best is None or (cand[0], cand[1]) < (best[0], best[1]):
            best = cand
    if best is None:
        return None
    t, _, pt, kind, payload = best
    return (t, pt, kind, payload)
