"""Shared hand-built fixture polygons used across the test suite."""

from rectbeacon.generators import comb  # noqa: F401  (re-exported fixture)
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
