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
# Reflex (12,10) and (8,10) end two horizontal edges on y = 10 and face each
# other across the gap between them, but the walls x = 9 and x = 11 of the
# notch rising from the bottom to y = 14 block the segment: general position
# holds.
FACING_BLOCKED = [(0, 0), (9, 0), (9, 14), (11, 14), (11, 0), (20, 0), (20, 20), (16, 20), (16, 10),
                  (12, 10), (12, 20), (8, 20), (8, 10), (4, 10), (4, 20), (0, 20)]

# Witnesses of cover's case (b) with both walls reflex, r = 6, in general
# position.  From the no-safe-cut node at the root, CASE_B_III reaches
# top(b-iii) in presentations id, rot180, mirror_x and mirror_y; CASE_B_I,
# the same first ten vertices under another top, reaches top(b-i,d1) in id
# and rot180 and top(b-i,d2) in mirror_x and mirror_y.  Their other
# presentations reach top(a).
CASE_B_III = [(0, -4), (6, -4), (6, -2), (2, -2), (2, 0), (8, 0), (8, -6), (3, -6), (3, -8), (10, -8),
              (10, 4), (5, 4), (5, 6), (10, 6), (10, 10), (0, 10)]
CASE_B_I = CASE_B_III[:10] + [(10, 10), (0, 10), (0, 6), (1, 6), (1, 4), (0, 4)]
