"""Oracles for the boundary contacts of a segment or a ray.

first_hit is a general cross-product intersection against every edge,
written without using that the edges are axis-parallel.  boundary_hits_scan
walks every edge with Fractions, comparing its level and span with the
ray's extent; the cut and attraction oracles take their contacts from it,
and the greedy spiral placement's own edge scan is checked against it.
"""

from rectbeacon.geometry import Point


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


def _extent(c, dc, far):
    """Closed range one coordinate sweeps along a ray; None where unbounded."""
    if dc > 0:
        return c, far
    if dc < 0:
        return far, c
    return c, c


def boundary_hits_scan(poly, z, d, t_max=None):
    """Boundary contacts of the ray z + t*d for 0 < t (<= t_max), sorted by t.

    A contact is (t, point, 'vertex', vertex index), or (t, point, 'edge',
    edge index) for a point interior to that edge; at equal t a vertex comes
    first.  An edge collinear with the ray contributes only its endpoints,
    which its perpendicular neighbours report."""
    fx, fy = (None, None) if t_max is None else (z.x + t_max * d.x, z.y + t_max * d.y)
    xs, ys = _extent(z.x, d.x, fx), _extent(z.y, d.y, fy)
    # By edge orientation: z, d and the ray's extent across the edge, then along it.
    rays = {"V": (z.x, d.x, xs, z.y, d.y, ys), "H": (z.y, d.y, ys, z.x, d.x, xs)}
    found = {}
    for e in poly.edges:
        zl, dl, (llo, lhi), zu, du, (ulo, uhi) = rays[e.orientation]
        level, ua, ub = (e.a.x, e.a.y, e.b.y) if e.orientation == "V" else (e.a.y, e.a.x, e.b.x)
        lo, hi = (ua, ub) if ua < ub else (ub, ua)
        if (dl == 0 or level == zl or (llo is not None and level < llo)
                or (lhi is not None and level > lhi)
                or (ulo is not None and hi < ulo) or (uhi is not None and lo > uhi)):
            continue
        t = (level - zl) / dl
        u = zu + t * du if du else zu
        if u == ua:
            found["vertex", e.index] = (t, e.a)
        elif u == ub:
            found["vertex", (e.index + 1) % poly.n] = (t, e.b)
        elif lo < u < hi:
            found["edge", e.index] = (t, Point(level, u) if e.orientation == "V" else Point(u, level))
    hits = [(t, pt, kind, i) for (kind, i), (t, pt) in found.items()]
    hits.sort(key=lambda h: (h[0], h[2] == "edge"))
    return hits
