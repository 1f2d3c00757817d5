import json
from fractions import Fraction

import pytest

from rectbeacon import jsonio
from rectbeacon.errors import GeometryError
from rectbeacon.generators import coverage_spiral, random_rectilinear
from rectbeacon.geometry import Point
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
