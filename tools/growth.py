"""Record how validation, the kernel, placement and verification grow with n.

    python3 tools/growth.py --out GROWTH.json [NAME=DIR ...]

Each NAME=DIR names a source checkout (default: change=the checkout this
tool sits in).  For n = START, 2*START, ... up to MAX_N, every checkout
times validate (jsonio.polygon_from_dict on the polygon's JSON text, as
`rectbeacon kernel -` reads it), kernel, route_beacons, cover,
verify_coverage at c04's plan (grid 14, jitter 10) and verify_routing with
pair_count=100 on the coverage spiral with n vertices and on
random_rectilinear(n, n), each call in a fresh process per checkout and n.
A call under a second is repeated, at least three times and for at least
REPEAT_FOR_S seconds in all, and its best time is kept, so that calls of a
few milliseconds, such as validate's, are timed over many runs.  A
verifier checks the beacons that cover or route_beacons places for it
before its timed call.  A series stops after its first call of at least
LIMIT_S seconds, or at its first call that raises: the record keeps that n
and the exception's type under "failed", and the other series run on.  At
each n the checkouts run in the given order, and in reverse order at every
other n, so that two checkouts share the machine's slow spells.

The record holds every timing, and per checkout, layer and family the
growth exponent: the least-squares slope of log(seconds) against log(n)
over the timings with n >= FIT_FROM[layer] at the n that every checkout
reached, so that a slower checkout's shorter series is compared like for
like.  It also records each
checkout's commit, the Python version and nproc.  It is a record of one run, not a
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
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import _commit  # noqa: E402

LAYERS = ("validate", "kernel", "route_beacons", "cover", "verify_coverage", "verify_routing")
FAMILIES = ("coverage_spiral", "random")
# A call this fast is timed at least three times and for REPEAT_FOR_S
# seconds in all, and the best time kept.
REPEAT_UNDER_S, REPEAT_FOR_S = 1.0, 0.2
# The first n, the last n and the time that ends a series.
START, MAX_N, LIMIT_S = 80, 2560, 5.0
# The first n that each layer's exponents are fitted from: verify_routing
# checks n(n - 1) vertex pairs, and its series ends by n = 320.
FIT_FROM = {"validate": 320, "kernel": 320, "route_beacons": 320, "cover": 320, "verify_coverage": 320,
            "verify_routing": 80}


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


def shared_exponents(series: dict, fit_from: dict) -> dict:
    """{checkout: {layer: {family: exponent}}} from {checkout: {layer:
    {family: [[n, seconds], ...]}}}, each fitted over the n from
    fit_from[layer] on that every checkout timed."""
    first = next(iter(series.values()))
    shared = {(layer, family): set.intersection(*({n for n, _ in s[layer][family]} for s in series.values()))
              for layer, by_family in first.items() for family in by_family}
    return {name: {layer: {family: fit_exponent([p for p in points
                                                 if p[0] >= fit_from[layer] and p[0] in shared[layer, family]])
                           for family, points in by_family.items()}
                   for layer, by_family in s.items()}
            for name, s in series.items()}


def time_point(src: Path, n: int, series: list) -> dict:
    """{"layer family": seconds} for the (layer, family) pairs in series,
    with rectbeacon imported from src; the type name of the exception in
    place of the seconds for a call that raised."""
    sys.path.insert(0, str(src))
    from rectbeacon import jsonio
    from rectbeacon.generators import coverage_spiral, random_rectilinear
    from rectbeacon.kernel import kernel
    from rectbeacon.placement import cover, route_beacons
    from rectbeacon.verify import SamplePlan, verify_coverage, verify_routing

    polys = {"coverage_spiral": lambda: coverage_spiral((n - 4) // 2)[0], "random": lambda: random_rectilinear(n, n)}
    # Each layer's call on a polygon; a verifier's beacons are placed here,
    # before its timed call.
    calls = {
        "validate": lambda p: partial(lambda text: jsonio.polygon_from_dict(json.loads(text)),
                                      jsonio.dumps(jsonio.polygon_to_dict(p))),
        "kernel": lambda p: partial(kernel, p),
        "route_beacons": lambda p: partial(route_beacons, p),
        "cover": lambda p: partial(cover, p),
        "verify_coverage": lambda p: partial(verify_coverage, p, cover(p).beacons, SamplePlan(grid=14, jitter=10)),
        "verify_routing": lambda p: partial(verify_routing, p, route_beacons(p).beacons, pair_count=100),
    }
    out = {}
    for layer, family in series:
        best, spent, runs = math.inf, 0.0, 0
        try:
            call = calls[layer](polys[family]())
            while not runs or (best < REPEAT_UNDER_S and (runs < 3 or spent < REPEAT_FOR_S)):
                t0 = time.perf_counter()
                call()
                seconds = time.perf_counter() - t0
                best, spent, runs = min(best, seconds), spent + seconds, runs + 1
        except Exception as exc:  # a failing call ends its own series, not the record
            best = type(exc).__name__
        out[f"{layer} {family}"] = best
    return out


def record(checkouts: dict, start: int, max_n: int, limit: float, fit_from: dict) -> dict:
    series = {name: {layer: {family: [] for family in FAMILIES} for layer in LAYERS} for name in checkouts}
    failed = {name: {} for name in checkouts}
    n, k = start, 0
    while n <= max_n:
        for name in list(checkouts)[::1 if k % 2 == 0 else -1]:
            running = [(layer, family) for layer in LAYERS for family in FAMILIES
                       if f"{layer} {family}" not in failed[name]
                       and (not series[name][layer][family] or series[name][layer][family][-1][1] < limit)]
            if not running:
                continue
            proc = subprocess.run([sys.executable, __file__, "--point", str(checkouts[name] / "src"), str(n),
                                   json.dumps(running)], capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{name} at n = {n} failed:\n{proc.stderr}")
            for key, seconds in json.loads(proc.stdout).items():
                layer, family = key.split()
                if isinstance(seconds, str):
                    failed[name][key] = [n, seconds]
                else:
                    series[name][layer][family].append([n, round(seconds, 6)])
            print(f"{name} n={n}: {proc.stdout.strip()}", file=sys.stderr)
        n, k = 2 * n, k + 1
    exponents = shared_exponents(series, fit_from)
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "start_n": start, "max_n": max_n, "limit_s": limit, "fit_from": fit_from,
        "order": "at each n the checkouts run in the given order, reversed at every other n",
        "checkouts": {name: {
            "commit": _commit(root),
            "seconds": series[name],
            "failed": failed[name],
            "exponents": exponents[name],
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
