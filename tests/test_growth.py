"""tools/growth.py at n <= 40 on this checkout, and its exponent fit."""

import importlib.util
import json
import math
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


def test_record_schema_at_small_n():
    growth = _growth()
    rec = json.loads(json.dumps(growth.record({"here": TOOL.parent.parent}, 10, 40, 5.0, 10)))
    assert {"python", "nproc", "start_n", "max_n", "limit_s", "fit_from", "order", "checkouts"} <= set(rec)
    here, = rec["checkouts"].values()
    assert here["commit"]
    for layer in growth.LAYERS:
        for family in growth.FAMILIES:
            points = here["seconds"][layer][family]
            assert [n for n, _ in points] == [10, 20, 40], (layer, family)
            assert all(t > 0 for _, t in points), (layer, family)
            assert math.isfinite(here["exponents"][layer][family]), (layer, family)
