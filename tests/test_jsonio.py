import json
from fractions import Fraction

import pytest

from rectbeacon import jsonio
from rectbeacon.errors import GeometryError
from rectbeacon.generators import coverage_spiral, random_rectilinear
from rectbeacon.geometry import Point, ratio, scalar
from rectbeacon.polygon import validate


def test_round_trip_exact_on_fuzz():
    for seed in range(20):
        p = random_rectilinear(4 + 2 * (seed % 9), seed)
        q = jsonio.polygon_from_dict(json.loads(json.dumps(jsonio.polygon_to_dict(p))))
        assert q.vertices == p.vertices


def test_round_trip_exact_rationals():
    p, _ = coverage_spiral(6)  # coordinates with denominator 40
    q = jsonio.polygon_from_dict(jsonio.polygon_to_dict(p))
    assert q.vertices == p.vertices
    text = json.dumps(jsonio.polygon_to_dict(p))
    assert "/" in text  # rationals serialized as p/q strings, never floats


def test_rational_strings_canonical():
    assert jsonio.point_to_json(Point(Fraction(2, 4), Fraction(-3, 1))) == ["1/2", "-3"]
    assert jsonio.point_from_json(["1/2", "-3"]) == Point(Fraction(1, 2), -3)


def test_beacons_round_trip():
    pts = [Point(Fraction(7, 2), 0), Point(1, 1)]
    d = jsonio.beacons_to_dict(pts, "cover", 2)
    assert d["bound"] == 2
    assert jsonio.beacons_from_dict(d) == pts


def test_malformed_polygon_raises():
    with pytest.raises(GeometryError):
        jsonio.polygon_from_dict({"points": []})
    with pytest.raises(GeometryError):
        jsonio.point_from_json(["1"])


@pytest.mark.parametrize("bad", ["a", "1/0"])
def test_malformed_number_raises_geometry_error(bad):
    with pytest.raises(GeometryError):
        jsonio.polygon_from_dict({"vertices": [["0", "0"], ["2", "0"], ["2", "2"], [bad, "2"]]})
    with pytest.raises(GeometryError):
        jsonio.pairs_from_dict({"pairs": [[[bad, "1"], ["2", "3"]]]})


def test_kernel_dict_empty_and_bounds():
    from rectbeacon.kernel import kernel

    p, _ = coverage_spiral(7)
    d = jsonio.kernel_to_dict(kernel(p))
    assert d["kernel"] == "empty"
    u = validate([(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)])
    d = jsonio.kernel_to_dict(kernel(u))
    assert d["bounds"]["y_hi"] == "2"
    assert d["bounds"]["x_lo"] is None


def _fraction_parser(text):
    """What scalar(text) gave when every string went through Fraction's
    parser: the digit guard counts the digits it spells, exponent included."""
    mantissa, e, exponent = text.lower().partition("e")
    try:
        shift = abs(int(exponent)) if e else 0
    except ValueError:
        shift = sum(ch.isdigit() for ch in exponent)
    if sum(ch.isdigit() for ch in mantissa) + shift > 4300:
        return f"number with more than 4300 digits: {text[:24]!r}..."
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"not an exact number: {text!r}"


_DIGITS = ["9" * 4300, "-" + "9" * 4300, "9" * 4301, "-" + "9" * 4301,
           "7" * 2150 + "/" + "3" * 2150, "-" + "7" * 2150 + "/" + "3" * 2150,
           "7" * 2150 + "/" + "3" * 2151, "-" + "7" * 2151 + "/" + "3" * 2150,
           "0" * 4300 + "1", "1/" + "0" * 4299 + "1"]


@pytest.mark.parametrize("text", [
    "0", "-0", "7", "-7", "007", "-007", "123456789012345678901234567890",
    "3/4", "6/8", "-6/8", "0/5", "-0/5", "004/006", "5/1", "5/0", "-5/0", "0/0", "6/-8",
    " 3", "3 ", " -3/4 ", "+3", "+3/4", "1_0", "1_0/2_0", "1.5", "-1.5", ".5", "1e3",
    "1E-3", "1.5e2", "\u0663", "\u0663/\u0664", "-\u0663", "\u00b2", "", "-", "--1", "+-1",
    "/", "1/", "/2", "1/2/3", "a", "1/a", "0x10", "1 /2", "inf", "nan",
] + _DIGITS, ids=lambda t: t if len(t) < 30 else
   f"{t[0] if t[0] in '-0' else ''}{'p/q' if '/' in t else 'int'}-{sum(c.isdigit() for c in t)}-digits")
def test_scalar_parses_as_the_fraction_parser(text):
    """The int() path for ASCII [-]digits[/digits] gives the value, or the
    GeometryError message, that Fraction's parser gave."""
    want = _fraction_parser(text)
    try:
        got = scalar(text)
        p, q = ratio(text)
    except GeometryError as exc:
        assert str(exc) == want
    else:
        assert got == want and type(got) is Fraction
        assert (p, q) == (want.numerator, want.denominator)


def test_coordinates_are_strings_or_json_integers():
    ring = [[0, 0], ["4", 0], [4, "7/2"], ["0", "7/2"]]
    got = jsonio.polygon_from_dict({"vertices": ring})
    assert got.vertices == validate([(0, 0), (4, 0), (4, Fraction(7, 2)), (0, Fraction(7, 2))]).vertices
    assert jsonio.point_from_json([-3, "1/2"]) == Point(-3, Fraction(1, 2))
    for bad in (0.5, 1.0, True, False, None, [1]):
        with pytest.raises(GeometryError, match="a coordinate must be a string or an integer"):
            jsonio.polygon_from_dict({"vertices": [[0, 0], [bad, 0], [4, 4], [0, 4]]})
        with pytest.raises(GeometryError, match="a coordinate must be a string or an integer"):
            jsonio.point_from_json(["1", bad])
    # A JSON integer meets the digit guard of a string: 4300 digits pass, 4301 do not.
    for value in (10 ** 4300 - 1, -(10 ** 4300 - 1)):
        assert jsonio.point_from_json([value, 0]) == Point(value, 0)
    for value in (10 ** 4300, -(10 ** 4300), 10 ** 100_000):
        with pytest.raises(GeometryError, match="number with more than 4300 digits"):
            jsonio.point_from_json([0, value])
        with pytest.raises(GeometryError, match="number with more than 4300 digits"):
            jsonio.polygon_from_dict({"vertices": [[0, 0], [value, 0], [value, 4], [0, 4]]})
