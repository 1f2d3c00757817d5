"""tools/growth.py at n <= 40 on this checkout, and its exponent fit."""

import importlib.util
import json
import math
import shutil
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "growth.py"


def _growth():
    spec = importlib.util.spec_from_file_location("growth", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_exponent_recovers_a_power_law():
    growth = _growth()
    assert growth.fit_exponent([(n, 3e-6 * n ** 1.5) for n in (80, 160, 320, 640)]) == pytest.approx(1.5)
    assert growth.fit_exponent([(n, 0.25 * n) for n in (10, 20)]) == pytest.approx(1.0)
    assert growth.fit_exponent([(80, 1.0), (80, 2.0)]) is None


def test_exponents_fit_the_n_every_checkout_reached():
    """A series that stopped early limits the other checkout's fit to the n
    both reached: the longer series bends after n = 160, so a fit over all
    its n would read less than 2."""
    growth = _growth()
    series = {
        "long": {"cover": {"random": [[80, 1.0], [160, 4.0], [320, 8.0], [640, 16.0]]}},
        "short": {"cover": {"random": [[80, 2.0], [160, 16.0]]}},
    }
    got = growth.shared_exponents(series, {"cover": 80})
    assert got["long"]["cover"]["random"] == pytest.approx(2.0)
    assert got["short"]["cover"]["random"] == pytest.approx(3.0)
    assert growth.fit_exponent([(n, t) for n, t in series["long"]["cover"]["random"]]) < 1.5
    assert growth.shared_exponents(series, {"cover": 160}) == {"long": {"cover": {"random": None}},
                                                               "short": {"cover": {"random": None}}}


def test_record_schema_at_small_n():
    growth = _growth()
    fit_from = dict.fromkeys(growth.LAYERS, 10)
    rec = json.loads(json.dumps(growth.record({"here": TOOL.parent.parent}, 10, 40, 5.0, fit_from)))
    assert {"python", "nproc", "start_n", "max_n", "limit_s", "fit_from", "order", "checkouts"} <= set(rec)
    here, = rec["checkouts"].values()
    assert here["commit"] and here["failed"] == {}
    assert set(here["seconds"]) == set(here["exponents"]) == set(rec["fit_from"]) == set(growth.LAYERS)
    assert {"validate", "kernel", "verify_coverage", "verify_routing"} <= set(growth.LAYERS)
    assert growth.FIT_FROM["validate"] == growth.FIT_FROM["kernel"] == 320
    for layer in growth.LAYERS:
        for family in growth.FAMILIES:
            points = here["seconds"][layer][family]
            assert [n for n, _ in points] == [10, 20, 40], (layer, family)
            assert all(t > 0 for _, t in points), (layer, family)
            assert math.isfinite(here["exponents"][layer][family]), (layer, family)


def test_a_failing_call_ends_only_its_series(tmp_path):
    """A call that raises ends its (layer, family) series, and the record
    keeps its n and the exception's type; the other series run on.  The
    copied src/ routes no polygon with 20 or more vertices, so both
    route_beacons series and both verify_routing ones, which place their
    beacons with it, end at n = 20."""
    growth = _growth()
    shutil.copytree(TOOL.parent.parent / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    placement = tmp_path / "src" / "rectbeacon" / "placement.py"
    placement.write_text(placement.read_text() + textwrap.dedent("""

        _route_beacons = route_beacons


        def route_beacons(poly, trace=None):
            if poly.n >= 20:
                raise RecursionError("too deep")
            return _route_beacons(poly, trace)
    """))
    rec = growth.record({"broken": tmp_path}, 10, 40, 5.0, dict.fromkeys(growth.LAYERS, 10))
    broken = rec["checkouts"]["broken"]
    assert broken["failed"] == {f"{layer} {family}": [20, "RecursionError"]
                                for layer in ("route_beacons", "verify_routing") for family in growth.FAMILIES}
    for layer in growth.LAYERS:
        for family in growth.FAMILIES:
            ns = [n for n, _ in broken["seconds"][layer][family]]
            assert ns == ([10] if f"{layer} {family}" in broken["failed"] else [10, 20, 40]), (layer, family)
