"""Independent oracle for vertex classes, edge structure and ring merging,
in Fractions.

turn is the sign of a cross product of Point differences, with shortcuts
for a horizontal edge followed by a vertical one and the reverse; classes
and merge_ring apply it to the points themselves, and edges reads each
edge's orientation, direction and supporting half-plane off its end
points and its kind off their classes.  rectbeacon.polygon, which compares
the coordinates scaled to integers by a common denominator instead, is
checked against them.
"""

from rectbeacon.polygon import CONVEX, REFLEX


def turn(a, b, c):
    """Sign of the turn a -> b -> c: 1 left, -1 right, 0 straight or back."""
    if a.y == b.y and b.x == c.x:
        return ((b.x > a.x) - (b.x < a.x)) * ((c.y > b.y) - (c.y < b.y))
    if a.x == b.x and b.y == c.y:
        return ((b.y < a.y) - (b.y > a.y)) * ((c.x > b.x) - (c.x < b.x))
    t = (b - a).cross(c - a)
    return (t > 0) - (t < 0)


def classes(vertices):
    """CONVEX, REFLEX or None (a collinear vertex) for each vertex of a ring."""
    n = len(vertices)
    out = []
    for i in range(n):
        t = turn(vertices[i - 1], vertices[i], vertices[(i + 1) % n])
        out.append(CONVEX if t > 0 else REFLEX if t < 0 else None)
    return out


def merge_ring(points):
    """Drop repeated and 180-degree (collinear) vertices from a closed ring."""
    out = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    i = 0
    while len(out) >= 3 and i < len(out):
        if turn(out[i - 1], out[i], out[(i + 1) % len(out)]) == 0:
            del out[i]
            i = 0 if i == len(out) else max(i - 1, 0)
        else:
            i += 1
    return out


def edges(vertices):
    """(orientation, direction, kind, half-plane axis, c, sense) of each edge
    of a CCW ring: the interior lies left of travel, so the inward normal is
    the travel vector turned a quarter left."""
    n = len(vertices)
    cls = classes(vertices)
    out = []
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        if a.y == b.y:
            orientation, direction, axis, level = "H", "E" if b.x > a.x else "W", "y", a.y
        else:
            orientation, direction, axis, level = "V", "N" if b.y > a.y else "S", "x", a.x
        if cls[i] == CONVEX and cls[(i + 1) % n] == CONVEX:
            kind = "convex"
        elif cls[i] == REFLEX and cls[(i + 1) % n] == REFLEX:
            kind = "reflex"
        else:
            kind = "mixed"
        travel = b - a
        sense = 1 if travel.x - travel.y > 0 else -1  # inward normal (-travel.y, travel.x)
        out.append((orientation, direction, kind, axis, level, sense))
    return out
