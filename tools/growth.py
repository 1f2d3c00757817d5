"""Record how route_beacons and cover grow with n, in one or more checkouts.

    python3 tools/growth.py --out GROWTH.json [NAME=DIR ...]

Each NAME=DIR names a source checkout (default: change=the checkout this
tool sits in).  For n = START, 2*START, ... up to MAX_N, every checkout
times route_beacons and cover on the coverage spiral with n vertices and on
random_rectilinear(n, n), each call in a fresh process per checkout and n,
best of three when a call takes under a second.  A series stops after its
first call of at least LIMIT_S seconds.  At each n the checkouts run in the
given order, and in reverse order at every other n, so that two checkouts
share the machine's slow spells.

The record holds every timing, and per checkout, layer and family the
growth exponent: the least-squares slope of log(seconds) against log(n)
over the timings with n >= FIT_FROM.  It also records each checkout's
commit, the Python version and nproc.  It is a record of one run, not a
gate: on a shared machine one call's time can move by a third between
runs, so compare exponents only when they differ by more than that noise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import _commit  # noqa: E402

LAYERS = ("route_beacons", "cover")
FAMILIES = ("coverage_spiral", "random")
# A call this fast is timed three times and the best time kept.
REPEAT_UNDER_S = 1.0
# The first n, the last n, the time that ends a series and the first n
# that the exponents are fitted from.
START, MAX_N, LIMIT_S, FIT_FROM = 80, 2560, 5.0, 320


def fit_exponent(points) -> float | None:
    """Least-squares slope of log(seconds) against log(n) over (n, seconds)
    pairs, None with fewer than two distinct n."""
    points = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len({x for x, _ in points}) < 2:
        return None
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    return (sum((x - mx) * (y - my) for x, y in points)
            / sum((x - mx) ** 2 for x, _ in points))


def time_point(src: Path, n: int, series: list) -> dict:
    """{"layer family": seconds} for the (layer, family) pairs in series,
    with rectbeacon imported from src."""
    sys.path.insert(0, str(src))
    from rectbeacon.generators import coverage_spiral, random_rectilinear
    from rectbeacon.placement import cover, route_beacons

    polys = {"coverage_spiral": lambda: coverage_spiral((n - 4) // 2)[0], "random": lambda: random_rectilinear(n, n)}
    layers = {"route_beacons": route_beacons, "cover": cover}
    out = {}
    for layer, family in series:
        poly, best = polys[family](), math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            layers[layer](poly)
            best = min(best, time.perf_counter() - t0)
            if best >= REPEAT_UNDER_S:
                break
        out[f"{layer} {family}"] = best
    return out


def record(checkouts: dict, start: int, max_n: int, limit: float, fit_from: int) -> dict:
    series = {name: {layer: {family: [] for family in FAMILIES} for layer in LAYERS} for name in checkouts}
    n, k = start, 0
    while n <= max_n:
        for name in list(checkouts)[::1 if k % 2 == 0 else -1]:
            running = [(layer, family) for layer in LAYERS for family in FAMILIES
                       if not series[name][layer][family] or series[name][layer][family][-1][1] < limit]
            if not running:
                continue
            proc = subprocess.run([sys.executable, __file__, "--point", str(checkouts[name] / "src"), str(n),
                                   json.dumps(running)], capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{name} at n = {n} failed:\n{proc.stderr}")
            for key, seconds in json.loads(proc.stdout).items():
                layer, family = key.split()
                series[name][layer][family].append([n, round(seconds, 6)])
            print(f"{name} n={n}: {proc.stdout.strip()}", file=sys.stderr)
        n, k = 2 * n, k + 1
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "start_n": start, "max_n": max_n, "limit_s": limit, "fit_from": fit_from,
        "order": "at each n the checkouts run in the given order, reversed at every other n",
        "checkouts": {name: {
            "commit": _commit(root),
            "seconds": series[name],
            "exponents": {layer: {family: fit_exponent([p for p in points if p[0] >= fit_from])
                                  for family, points in by_family.items()}
                          for layer, by_family in series[name].items()},
        } for name, root in checkouts.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", metavar="NAME=DIR")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--point", nargs=3, metavar=("SRC", "N", "SERIES"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.point:
        src, n, running = args.point
        print(json.dumps(time_point(Path(src), int(n), json.loads(running))))
        return 0
    if args.out is None:
        ap.error("--out is required")
    if any("=" not in c for c in args.checkouts):
        ap.error("name each checkout as NAME=DIR")
    pairs = [c.split("=", 1) for c in args.checkouts] or [["change", Path(__file__).resolve().parent.parent]]
    checkouts = {name: Path(root).resolve() for name, root in pairs}
    rec = record(checkouts, START, MAX_N, LIMIT_S, FIT_FROM)
    args.out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
