"""Run cover and route on a fixed corpus and count the cases they reach.

    python3 tools/census.py

It imports rectbeacon from the src/ directory of the checkout it sits in.
The corpus has four groups, each polygon in all 8 presentations of
transforms.TRANSFORMS:

- random_rectilinear(8 + 2(s mod 40), 700000 + s) for s < 6,000;
- the coverage spirals r = 1..60;
- random_rectilinear(8 + 2(s mod 40), 900000 + s) for s < 2,500;
- the case (b) witnesses CASE_B_I and CASE_B_III of tests/shapes.py.

It prints one JSON object: the number of covers, the failures (each cover
that raised, with the first line of its error), the count of every
no_safe[...] and top(...) trace label, and a SHA-256 digest over every
cover's name, beacons and trace (or error); then the same for
route_beacons, as routes, route_failures, route_labels, which counts every
trace label, and route_digest.  Two checkouts that print the same digest
placed the same beacons by the same recursion on the whole corpus.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from rectbeacon.generators import coverage_spiral, random_rectilinear  # noqa: E402
from rectbeacon.placement import cover, route_beacons  # noqa: E402
from rectbeacon.polygon import validate  # noqa: E402
from rectbeacon.transforms import TRANSFORMS  # noqa: E402
from shapes import CASE_B_I, CASE_B_III  # noqa: E402


def corpus(seeds: int = 6000, spiral_r: int = 60, late_seeds: int = 2500):
    """(name, polygon) for the four groups, each polygon in all 8
    presentations."""
    def fuzz(base, count):
        for s in range(count):
            n = 8 + 2 * (s % 40)
            yield f"random_rectilinear({n}, {base + s})", random_rectilinear(n, base + s)

    spirals = ((f"coverage_spiral({r})", coverage_spiral(r)[0]) for r in range(1, spiral_r + 1))
    witnesses = (("CASE_B_I", validate(CASE_B_I)), ("CASE_B_III", validate(CASE_B_III)))
    for name, p in chain(fuzz(700000, seeds), spirals, fuzz(900000, late_seeds), witnesses):
        for t in TRANSFORMS.values():
            yield f"{name} {t.name}", t.polygon(p)


def _labels(node):
    """The trace labels at node and below it."""
    yield node.label
    for c in node.children:
        yield from _labels(c)


class _Tally:
    """The failures, trace label counts and digest of one placement."""

    def __init__(self, place, counted):
        self.place, self.counted = place, counted
        self.failures, self.labels, self.digest = {}, Counter(), hashlib.sha256()

    def add(self, name, p):
        try:
            bs = self.place(p)
        except Exception as exc:  # a census reports every failure and goes on
            self.failures[name] = type(exc).__name__ + ": " + str(exc).partition("\n")[0]
            self.digest.update(f"{name}\t{self.failures[name]}\n".encode())
            return
        self.labels.update(label for label in _labels(bs.trace) if self.counted(label))
        beacons = " ".join(f"({b.x},{b.y})" for b in bs.beacons)
        self.digest.update(f"{name}\t{beacons}\t{json.dumps(bs.trace.as_dict(), sort_keys=True)}\n".encode())


def census(polys) -> dict:
    """The census of cover and route_beacons over (name, polygon) pairs, as
    main prints it."""
    count = 0
    covers = _Tally(cover, lambda label: label.startswith(("no_safe[", "top(")))
    routes = _Tally(route_beacons, lambda label: True)
    for name, p in polys:
        count += 1
        covers.add(name, p)
        routes.add(name, p)
    return {"covers": count, "failures": covers.failures, "labels": dict(sorted(covers.labels.items())),
            "digest": covers.digest.hexdigest(),
            "routes": count, "route_failures": routes.failures,
            "route_labels": dict(sorted(routes.labels.items())), "route_digest": routes.digest.hexdigest()}


def main() -> int:
    print(json.dumps(census(corpus()), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
