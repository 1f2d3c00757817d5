"""Command-line entry point wiring generators, kernel, placement and verify.

All payloads are JSON with rational coordinates as strings; '-' means stdin
or stdout so subcommands compose in pipelines.  Exit codes: 0 success or
verification pass, 1 verification failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import jsonio
from .attraction import attraction_path
from .errors import GeometryError
from .geometry import Point, scalar
from .generators import (
    comb,
    coverage_spiral,
    random_rectilinear,
    random_x_monotone,
    routing_spiral,
    uniform_spiral,
)
from .kernel import kernel, kernel_oracle
from .placement import cover, cover_monotone, route_beacons
from .svg import render_svg
from .verify import SamplePlan, verify_coverage, verify_routing


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str, what: str, parse):
    """parse(JSON data of the file at path); a file that cannot be read,
    decoded or parsed, or that nests too deep for the decoder, exits with
    code 2."""
    try:
        return parse(json.loads(_read_text(path)))
    except (GeometryError, OSError, ValueError, RecursionError) as exc:
        _fail_input(f"cannot read {what} from {path}: {exc}")


def _load_polygon(args):
    return _load(args.polygon, "polygon",
                 lambda data: jsonio.polygon_from_dict(data, args.merge_collinear))


def _fail_input(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _parse_point(text: str) -> Point:
    try:
        xs, ys = text.split(",")
        return Point(scalar(xs.strip()), scalar(ys.strip()))
    except (GeometryError, ValueError, TypeError) as exc:
        _fail_input(f"bad point {text!r}: {exc}")


def _cmd_gen(args) -> int:
    try:
        poly = _generate(args)
    except ValueError as exc:
        _fail_input(str(exc))
    _write_text(args.output, jsonio.dumps(jsonio.polygon_to_dict(poly)))
    return 0


def _generate(args):
    if args.what == "comb":
        return comb(args.k)
    if args.what == "random":
        return (random_x_monotone if args.monotone else random_rectilinear)(args.n, args.seed)
    if args.kind == "routing":
        return routing_spiral(args.r)
    if args.kind == "uniform":
        return uniform_spiral(args.r)[0]
    poly, decomp = coverage_spiral(args.r)
    if args.decomp:
        side = {
            "spine": [jsonio.point_to_json(p) for p in decomp.spine],
            "rects": [
                {"label": label, "index": i,
                 "lo": jsonio.point_to_json(rect.lo),
                 "hi": jsonio.point_to_json(rect.hi)}
                for label, i, rect in decomp.rects
            ],
        }
        _write_text(args.decomp, jsonio.dumps(side))
    return poly


def _cmd_kernel(args) -> int:
    poly = _load_polygon(args)
    region = kernel_oracle(poly) if args.oracle else kernel(poly)
    _write_text(args.output, jsonio.dumps(jsonio.kernel_to_dict(region)))
    if args.emit_svg:
        _write_text(args.emit_svg, render_svg(poly, kernel=region.region))
    return 0


def _cmd_cover(args) -> int:
    poly = _load_polygon(args)
    if args.monotone:
        bs = cover_monotone(poly)
        bound = poly.r // 4 + 1
    else:
        bs = cover(poly)
        bound = max(1, -(-poly.r // 3))
    _write_text(args.output, jsonio.dumps(jsonio.beacons_to_dict(bs.beacons, "cover", bound)))
    if args.trace:
        _write_text(args.trace, jsonio.dumps(bs.trace.as_dict()))
    return 0


def _cmd_route(args) -> int:
    poly = _load_polygon(args)
    bs = route_beacons(poly)
    _write_text(args.output, jsonio.dumps(jsonio.beacons_to_dict(bs.beacons, "route", (3 * poly.r) // 4)))
    if args.trace:
        _write_text(args.trace, jsonio.dumps(bs.trace.as_dict()))
    return 0


def _cmd_simulate(args) -> int:
    poly = _load_polygon(args)
    start = _parse_point(args.start)
    beacon = _parse_point(args.beacon)
    try:
        path = attraction_path(poly, start, beacon)
    except GeometryError as exc:
        _fail_input(str(exc))
    _write_text(args.output, jsonio.dumps(jsonio.path_to_dict(path)))
    if args.emit_svg:
        _write_text(args.emit_svg, render_svg(poly, beacons=[beacon], paths=[path.points()]))
    return 0


def _cmd_verify(args) -> int:
    try:
        plan = SamplePlan(grid=args.grid, seed=args.seed, jitter=args.jitter)
    except ValueError as exc:
        _fail_input(str(exc))
    poly = _load_polygon(args)
    beacons = _load(args.beacons, "beacons", jsonio.beacons_from_dict)
    if args.mode == "cover":
        report = verify_coverage(poly, beacons, plan)
    else:
        pairs = _load(args.pairs, "pairs", jsonio.pairs_from_dict) if args.pairs else None
        report = verify_routing(poly, beacons, pairs=pairs, seed=args.seed)
    _write_text(args.output, jsonio.dumps(report.as_dict()))
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    poly = _load_polygon(args)
    beacons = _load(args.beacons, "beacons", jsonio.beacons_from_dict) if args.beacons else []
    paths = [_load(args.path, "path", jsonio.path_points_from_dict)] if args.path else []
    kernel_region = kernel(poly).region if args.kernel else None
    _write_text(args.output, render_svg(poly, beacons=beacons, paths=paths,
                                        kernel=kernel_region))
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        _fail_input(f"--sizes must be comma-separated integers, not {args.sizes!r}")
    if args.runs < 1:
        _fail_input(f"--runs must be at least 1, not {args.runs}")
    if min(sizes) < 4:
        _fail_input(f"--sizes must be at least 4, not {min(sizes)}")
    lines = ["n,t_kernel_ns,t_oracle_ns"]
    for n in sizes:
        poly = comb(n // 4)
        t_k = []
        t_o = []
        for _ in range(args.runs):
            t0 = time.perf_counter_ns()
            kernel(poly)
            t_k.append(time.perf_counter_ns() - t0)
            t0 = time.perf_counter_ns()
            kernel_oracle(poly)
            t_o.append(time.perf_counter_ns() - t0)
        t_k.sort()
        t_o.sort()
        lines.append(f"{poly.n},{t_k[len(t_k) // 2]},{t_o[len(t_o) // 2]}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rectbeacon",
                                 description="Beacon attraction in rectilinear polygons")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--merge-collinear", action="store_true",
                       help="merge 180-degree vertices instead of rejecting them")

    g = sub.add_parser("gen", help="generate polygons")
    gsub = g.add_subparsers(dest="what", required=True)
    gs = gsub.add_parser("spiral")
    gs.add_argument("--kind", choices=["coverage", "routing", "uniform"], default="coverage")
    gs.add_argument("-r", type=int, required=True)
    gs.add_argument("-o", "--output", default="-")
    gs.add_argument("--decomp", help="write the rectangle decomposition JSON here")
    gs.set_defaults(func=_cmd_gen)
    gc = gsub.add_parser("comb")
    gc.add_argument("-k", type=int, required=True, help="number of fingers")
    gc.add_argument("-o", "--output", default="-")
    gc.set_defaults(func=_cmd_gen)
    gr = gsub.add_parser("random")
    gr.add_argument("-n", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--monotone", action="store_true")
    gr.add_argument("-o", "--output", default="-")
    gr.set_defaults(func=_cmd_gen)

    k = sub.add_parser("kernel", help="compute the beacon kernel")
    k.add_argument("polygon")
    k.add_argument("--oracle", action="store_true", help="use the cone-intersection oracle")
    k.add_argument("--emit-svg")
    k.add_argument("-o", "--output", default="-")
    add_common(k)
    k.set_defaults(func=_cmd_kernel)

    c = sub.add_parser("cover", help="place coverage beacons")
    c.add_argument("polygon")
    c.add_argument("--monotone", action="store_true", help="use the monotone bound")
    c.add_argument("--trace")
    c.add_argument("-o", "--output", default="-")
    add_common(c)
    c.set_defaults(func=_cmd_cover)

    rt = sub.add_parser("route", help="place routing beacons")
    rt.add_argument("polygon")
    rt.add_argument("--trace")
    rt.add_argument("-o", "--output", default="-")
    add_common(rt)
    rt.set_defaults(func=_cmd_route)

    s = sub.add_parser("simulate", help="trace one attraction path")
    s.add_argument("polygon")
    s.add_argument("--from", dest="start", required=True, metavar="X,Y")
    s.add_argument("--beacon", required=True, metavar="X,Y")
    s.add_argument("--emit-svg")
    s.add_argument("-o", "--output", default="-")
    add_common(s)
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("verify", help="verify a beacon set")
    v.add_argument("mode", choices=["cover", "route"])
    v.add_argument("polygon")
    v.add_argument("beacons")
    v.add_argument("--grid", type=int, default=40)
    v.add_argument("--jitter", type=int, default=0)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--pairs", help="JSON file with a 'pairs' list for routing")
    v.add_argument("-o", "--output", default="-")
    add_common(v)
    v.set_defaults(func=_cmd_verify)

    rd = sub.add_parser("render", help="draw an SVG figure")
    rd.add_argument("polygon")
    rd.add_argument("--beacons")
    rd.add_argument("--path")
    rd.add_argument("--kernel", action="store_true")
    rd.add_argument("-o", "--output", default="-")
    add_common(rd)
    rd.set_defaults(func=_cmd_render)

    b = sub.add_parser("bench", help="time kernel vs kernel_oracle")
    b.add_argument("--sizes", default="100,200,400,800,2000")
    b.add_argument("--runs", type=int, default=5)
    b.add_argument("-o", "--output", default="-")
    b.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
