"""Exact 2-D primitives: rational scalars, points, axis-parallel segments."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple, Union

from .errors import GeometryError

# All coordinates and lengths in this package are exact rationals.  Fraction
# already guarantees canonical form (reduced, positive denominator), so it is
# used directly as the scalar type.
Scalar = Fraction

ScalarLike = Union[int, str, Fraction]

# Python's default limit on the digits of an int read from or written as text.
_MAX_DIGITS = 4300


def _spelled_digits(text: str) -> int:
    """The digits of a number string, plus the zeros its exponent stands for."""
    mantissa, e, exponent = text.lower().partition("e")
    try:
        shift = abs(int(exponent)) if e else 0
    except ValueError:  # no number, or one past the limit itself
        shift = sum(ch.isdigit() for ch in exponent)
    return sum(ch.isdigit() for ch in mantissa) + shift


def ratio(text: str) -> Tuple[int, int]:
    """(p, q), in lowest terms with q > 0, of a number string like '-3' or
    '7/2'.

    ASCII '[-]digits' and '[-]digits/digits' are read with int(), their
    length being the digit guard.  Every other form that Fraction's parser
    reads (whitespace, '+', '_', decimals, exponents, non-ASCII digits) goes
    through it, once _spelled_digits has guarded it.  A string that is no
    exact number, such as 'a' or '1/0', raises GeometryError, and so does
    one that spells more than _MAX_DIGITS digits, before any number is built.
    """
    num, slash, den = text.partition("/")
    body = num[1:] if num[:1] == "-" else num
    plain = text.isascii() and body.isdigit() and (den.isdigit() or not slash)
    if (len(body) + len(den) if plain else _spelled_digits(text)) > _MAX_DIGITS:
        raise GeometryError(f"number with more than {_MAX_DIGITS} digits: {text[:24]!r}...")
    if not plain:
        try:
            f = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise GeometryError(f"not an exact number: {text!r}") from None
        return f.numerator, f.denominator
    p, q = int(num), int(den) if slash else 1
    if q == 0:
        raise GeometryError(f"not an exact number: {text!r}")
    if q == 1:
        return p, 1
    g = gcd(p, q)
    return p // g, q // g


def from_ratio(p: int, q: int) -> Fraction:
    """The Scalar p/q of a pair in lowest terms, as ratio() returns it."""
    return Fraction(p) if q == 1 else Fraction(p, q)


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction or string like '7/2' / '-3' to an exact Scalar.

    Floats are rejected on purpose: silently rationalizing binary floats is a
    classic source of wrong geometric predicates.  Strings are read by
    ratio(), with its errors.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return from_ratio(*ratio(value))
    raise TypeError(f"cannot build an exact scalar from {type(value).__name__}")


class Point:
    """Immutable exact point; also serves as a 2-vector."""

    __slots__ = ("x", "y")

    def __init__(self, x: ScalarLike, y: ScalarLike):
        object.__setattr__(self, "x", scalar(x))
        object.__setattr__(self, "y", scalar(y))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Point is immutable")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, s: ScalarLike) -> "Point":
        s = scalar(s)
        return Point(self.x * s, self.y * s)

    __rmul__ = __mul__

    def cross(self, other: "Point") -> Fraction:
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Point") -> Fraction:
        return self.x * other.x + self.y * other.y

    def dist2(self, other: "Point") -> Fraction:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def key(self) -> tuple:
        """Lexicographic sort key (x, then y)."""
        return (self.x, self.y)

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


def midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2, (a.y + b.y) / 2)


def format_scalar(v: Fraction) -> str:
    """Canonical string form: integer or 'p/q'."""
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"
