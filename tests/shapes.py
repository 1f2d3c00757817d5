"""Shared hand-built fixture polygons used across the test suite."""

from rectbeacon.polygon import validate

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

# Bottom bar [0,4]x[0,2] plus right column [2,4]x[2,4]; reflex vertex (2,2).
L_SHAPE = [(0, 0), (4, 0), (4, 4), (2, 4), (2, 2), (0, 2)]

# Base [0,6]x[0,2] with towers over [0,2] and [4,6]; bottom reflex edge
# (4,2)-(2,2) at y=2.
U_SHAPE = [(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)]


def square():
    return validate(SQUARE)


def l_shape():
    return validate(L_SHAPE)


def u_shape():
    return validate(U_SHAPE)


def comb(k):
    """Base [0, 4k-2] x [0, 11] with k fingers of width 2 up to y = 2k + 11,
    separated by gaps of width 2 whose floors sit at the distinct heights
    11, 13, ..., rising from right to left.  The gap floors are the only
    reflex edges, so R(P) is y <= 11 and the kernel is the base, which the
    fast kernel reaches by clipping.  The lowest floor comes first on the
    boundary, so kernel_oracle, which clips at the reflex vertices in that
    order, is cut down to the base by its first vertex."""
    top = 2 * k + 11
    ring = [(0, 0), (4 * k - 2, 0)]
    for i in range(k - 1, -1, -1):
        ring += [(4 * i + 2, top), (4 * i, top)]
        if i:
            floor = 11 + 2 * (k - 1 - i)
            ring += [(4 * i, floor), (4 * i - 2, floor)]
    return validate(ring)


# Rings validate() rejects as not simple.
# The slot wall (3,3)-(3,0) ends inside the bottom edge, forming a T.
T_JUNCTION = [(0, 0), (4, 0), (4, 3), (3, 3), (3, 0), (2, 0), (2, 3), (0, 3)]
# The notch corner (4,2) lies inside the right edge (4,0)-(4,4).
VERTEX_ON_EDGE = [(0, 0), (4, 0), (4, 4), (2, 4), (2, 2), (4, 2), (4, 1), (0, 1)]
# The two arms of a C meet along y = 3, x in [4, 5], from opposite sides.
OVERLAPPING_EDGES = [(0, 0), (5, 0), (5, 3), (4, 3), (4, 2), (2, 2), (2, 3), (6, 3),
                     (6, 6), (0, 6)]

# Notch floors at y = 2 joined by a horizontal cut through the middle tower:
# reflex corners (4,2) and (6,2) violate general position.
W_SHAPE = [(0, 0), (10, 0), (10, 5), (8, 5), (8, 2), (6, 2), (6, 4), (4, 4), (4, 2), (2, 2),
           (2, 5), (0, 5)]
# W_SHAPE mirrored in y = x (clockwise): reflex (2,4) and (2,6) joined by a vertical cut.
W_SHAPE_VERTICAL = [(y, x) for x, y in W_SHAPE]
# Reflex (1,1) and (4,1) are aligned, but the segment between them runs along
# the boundary through the convex corners (2,1) and (3,1): general position holds.
STEP_FLOOR = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 1), (4, 1), (4, 0), (5, 0),
              (5, 5), (0, 5)]
