"""The four workloads: their inputs, the job each runs, and every output check.

A job is one polygon through a workload's pipeline.  It calls the same public
functions as the matching CLI subcommands, in the same order, always through
the module attribute, so that the traced run can wrap them.  `m` is the
namespace of freshly imported rectbeacon modules built by run.py.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple


class Input:
    """One generated polygon, handed to the job as JSON text only."""

    __slots__ = ("family", "rung", "seed", "n", "text", "args")

    def __init__(self, family: str, rung: int, seed: int, poly, text: str, args: Tuple):
        self.family = family
        self.rung = rung
        self.seed = seed  # seed of the job's own sampling (verification samples and pairs)
        self.n = poly.n
        self.text = text
        self.args = args  # generator arguments, for reports and CLI parity

    @property
    def stratum(self) -> Tuple[str, int]:
        return (self.family, self.rung)

    def __repr__(self):
        return f"{self.family}{self.args} n={self.n}"


# ------------------------------------------------------------------ families


def comb(m, k: int):
    """Base with k fingers of width 2, separated by gaps of width 2 whose
    floors sit at the distinct heights 11, 13, ...  The only reflex edges are
    the gap floors, so R(P) is y <= 11 and the kernel is the base
    [0, 4k-2] x [0, 11], which the kernel reaches by clipping."""
    top = 2 * k + 11
    ring = [(0, 0), (4 * k - 2, 0)]
    for i in range(k - 1, -1, -1):
        ring += [(4 * i + 2, top), (4 * i, top)]
        if i > 0:
            floor = 11 + 2 * (i - 1)
            ring += [(4 * i, floor), (4 * i - 2, floor)]
    return m.polygon.validate(ring)


def corpus_seed(rung: int, j: int) -> int:
    """Generator seed of the j-th random polygon of a rung.

    The random polygons form a fixed corpus, as in the acceptance tests:
    verifying two random polygons of the same n differs in cost by about
    30%, and so does one polygon under two symmetries of the square, so
    polygons drawn afresh per run would move the end-to-end metrics by more
    than their bounds.  The workload seed moves each corpus polygon and picks
    its first vertex, and seeds the verifiers' own sampling.
    """
    return 1000 * rung + j


def _presented(m, poly, rng: random.Random) -> str:
    """JSON text of poly translated and started at a seeded vertex; both keep
    the polygon valid, so it is not validated twice."""
    shift = m.geometry.Point(rng.randrange(-999, 1000), rng.randrange(-999, 1000))
    ring = [v + shift for v in poly.vertices]
    k = rng.randrange(len(ring))
    return m.jsonio.dumps({"vertices": [m.jsonio.point_to_json(p) for p in ring[k:] + ring[:k]]})


def _make(m, family: str, rung: int, j: int, rng: random.Random) -> Input:
    if family == "random":
        args = (rung, corpus_seed(rung, j))
        poly = m.generators.random_rectilinear(*args)
        text = _presented(m, poly, rng)
    else:
        args = (rung // 4,) if family == "comb" else ((rung - 4) // 2,)
        if family == "comb":
            poly = comb(m, *args)
        elif family == "coverage_spiral":
            poly, _ = m.generators.coverage_spiral(*args)
        else:
            poly, _ = m.generators.uniform_spiral(*args)
        text = m.jsonio.dumps(m.jsonio.polygon_to_dict(poly))
    return Input(family, rung, rng.randrange(1 << 30), poly, text, args)


def _build(m, seed: int, rungs: Sequence[int], fixed: Sequence[str], random_per_rung: int) -> List[Input]:
    """Inputs in job order: repeated passes over the rungs, each pass with
    every fixed family and the next random polygon of each rung."""
    rng = random.Random(seed)
    fixed_inputs = {(f, r): _make(m, f, r, 0, rng) for f in fixed for r in rungs}
    out = []
    for j in range(random_per_rung):
        for rung in rungs:
            out += [fixed_inputs[(f, rung)] for f in fixed]
            out.append(_make(m, "random", rung, j, rng))
    return out


# ---------------------------------------------------------------------- jobs


def _parse(m, inp: Input):
    return m.jsonio.polygon_from_dict(json.loads(inp.text))


def _cover(m, poly) -> Tuple[object, int, str]:
    bs = m.placement.cover(poly, m.placement.TraceNode("root", poly.r))
    bound = max(1, -(-poly.r // 3))
    return bs, bound, m.jsonio.dumps(m.jsonio.beacons_to_dict(bs.beacons, "cover", bound))


def _route(m, poly) -> Tuple[object, int, str]:
    bs = m.placement.route_beacons(poly, m.placement.TraceNode("route_root", poly.r))
    bound = (3 * poly.r) // 4
    return bs, bound, m.jsonio.dumps(m.jsonio.beacons_to_dict(bs.beacons, "route", bound))


def _kernel(m, poly) -> Tuple[object, str]:
    region = m.kernel.kernel(poly)
    return region, m.jsonio.dumps(m.jsonio.kernel_to_dict(region))


def cover_fuzz_job(m, inp: Input) -> Dict:
    """gen random | cover - | verify cover --grid 14 --jitter 10 (c04 density)."""
    poly = _parse(m, inp)
    bs, bound, text = _cover(m, poly)
    beacons = m.jsonio.beacons_from_dict(json.loads(text))
    report = m.verify.verify_coverage(poly, beacons,
                                      m.verify.SamplePlan(grid=14, seed=inp.seed, jitter=10))
    return {"poly": poly, "cover": (bs, bound, text), "report": report}


def route_fuzz_job(m, inp: Input) -> Dict:
    """gen random | route - | verify route (pair_count=100, as c07)."""
    poly = _parse(m, inp)
    bs, bound, text = _route(m, poly)
    beacons = m.jsonio.beacons_from_dict(json.loads(text))
    report = m.verify.verify_routing(poly, beacons, pair_count=100, seed=inp.seed)
    return {"poly": poly, "route": (bs, bound, text), "report": report}


def place_large_job(m, inp: Input) -> Dict:
    """kernel, cover and route on one polygon, each serialized as the CLI does."""
    poly = _parse(m, inp)
    return {"poly": poly, "kernel": _kernel(m, poly), "cover": _cover(m, poly),
            "route": _route(m, poly)}


def kernel_large_job(m, inp: Input) -> Dict:
    """rectbeacon kernel: JSON text to kernel JSON text."""
    poly = _parse(m, inp)
    return {"poly": poly, "kernel": _kernel(m, poly)}


# -------------------------------------------------------------------- checks


def _check_cover(poly, cover) -> List[str]:
    bs, bound, _ = cover
    problems = []
    if len(bs.beacons) > bound:
        problems.append(f"cover placed {len(bs.beacons)} beacons, bound {bound}")
    if poly.r >= 1:
        reflex = {poly.vertices[i] for i in poly.reflex_indices}
        if any(b not in reflex for b in bs.beacons):
            problems.append("cover beacon off the reflex vertices")
    return problems


def _check_route(poly, route, report=None) -> List[str]:
    bs, bound, _ = route
    problems = []
    if len(bs.beacons) > bound:
        problems.append(f"route placed {len(bs.beacons)} beacons, bound {bound}")
    if report is not None and report.stats["max_chain"] > len(bs.beacons) + 1:
        problems.append(f"max_chain {report.stats['max_chain']} > |B| + 1")
    return problems


def _check_kernel(m, inp: Input, poly, kernel) -> List[str]:
    region = kernel[0]
    problems = []
    if inp.family == "comb":
        width = 4 * inp.args[0] - 2
        base = {(0, 0), (width, 0), (width, 11), (0, 11)}
        if region.is_empty or {(v.x, v.y) for v in region.region.vertices} != base:
            problems.append("comb kernel is not its base [0, 4k-2] x [0, 11]")
    elif inp.family == "uniform_spiral" and not region.is_empty:
        problems.append("uniform spiral kernel is not empty")
    if not region.is_empty:
        if any(not m.kernel.in_all_cones(poly, v) for v in region.region.vertices):
            problems.append("kernel vertex outside a reflex cone")
    return problems


def _check_report(out) -> List[str]:
    report = out["report"]
    return [] if report.passed else [f"verifier failed: {report.stats}"]


def cover_fuzz_check(m, inp, out):
    return _check_report(out) + _check_cover(out["poly"], out["cover"])


def route_fuzz_check(m, inp, out):
    return _check_report(out) + _check_route(out["poly"], out["route"], out["report"])


def place_large_check(m, inp, out):
    poly = out["poly"]
    return (_check_kernel(m, inp, poly, out["kernel"]) + _check_cover(poly, out["cover"])
            + _check_route(poly, out["route"]))


def kernel_large_check(m, inp, out):
    return _check_kernel(m, inp, out["poly"], out["kernel"])


# ------------------------------------------- checks outside the timed region


def _smallest_per_family(inputs: Sequence[Input]) -> List[int]:
    """Index of the first input of each family on the smallest rung."""
    low = min(inp.rung for inp in inputs)
    seen, picked = set(), []
    for i, inp in enumerate(inputs):
        if inp.rung == low and inp.family not in seen:
            seen.add(inp.family)
            picked.append(i)
    return picked


def place_large_post(m, inputs, outputs, seed: int) -> List[Tuple[int, str]]:
    """Coverage and routing verification at the density a run affords: one
    family per run, chosen by the seed, on the smallest rung; a 6x6 grid
    plus the vertex, midpoint and reflex samples, and 40 seeded pairs drawn
    from all vertex and interior pairs."""
    smallest = _smallest_per_family(inputs)
    i = smallest[seed % len(smallest)]
    out, sampling_seed = outputs[i], inputs[i].seed
    poly = out["poly"]
    problems = []
    rep = m.verify.verify_coverage(poly, out["cover"][0].beacons,
                                   m.verify.SamplePlan(grid=6, seed=sampling_seed))
    if not rep.passed:
        problems.append(f"coverage verification failed: {rep.stats}")
    pairs = m.verify.default_pairs(poly, 20, sampling_seed)
    pairs = random.Random(sampling_seed).sample(pairs, min(40, len(pairs)))
    rep = m.verify.verify_routing(poly, out["route"][0].beacons, pairs=pairs)
    problems += _check_route(poly, out["route"], rep)
    if not rep.passed:
        problems.append(f"routing verification failed: {rep.stats}")
    return [(i, p) for p in problems]


def kernel_large_post(m, inputs, outputs, seed: int) -> List[Tuple[int, str]]:
    """On the smallest rung the fast kernel equals the cone oracle."""
    problems = []
    for i in _smallest_per_family(inputs):
        poly = outputs[i]["poly"]
        fast, oracle = outputs[i]["kernel"][0], m.kernel.kernel_oracle(poly)
        same = (m.regions.regions_equal(fast.pieces, oracle.pieces)
                and fast.is_empty == oracle.is_empty
                and (not fast.is_empty or fast.degenerate == oracle.degenerate))
        if not same:
            problems.append((i, "kernel differs from kernel_oracle"))
    return problems


# ---------------------------------------------------------------- CLI parity


def _cli(root: Path, args: List[str], stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "rectbeacon.cli"] + args, input=stdin,
                          capture_output=True, text=True, cwd=root, env=env, timeout=120)


def _expect(problems: List[str], what: str, proc, want: str) -> None:
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    elif proc.stdout != want:
        problems.append(f"{what}: output differs from the in-process job")


def _fuzz_parity(m, root, inp, out, mode, verify_args) -> List[str]:
    problems = []
    rung, seed = inp.args
    base = m.generators.random_rectilinear(rung, seed)
    gen = _cli(root, ["gen", "random", "-n", str(rung), "--seed", str(seed)])
    _expect(problems, "gen random", gen, m.jsonio.dumps(m.jsonio.polygon_to_dict(base)))
    placed = _cli(root, [mode, "-"], inp.text)
    _expect(problems, mode, placed, out[mode][2])
    with tempfile.TemporaryDirectory(dir=root / ".perfbench_out") as tmp:
        poly_file, beacon_file = Path(tmp, "poly.json"), Path(tmp, "beacons.json")
        poly_file.write_text(inp.text)
        beacon_file.write_text(out[mode][2])
        ver = _cli(root, ["verify", mode, str(poly_file), str(beacon_file)] + verify_args)
    _expect(problems, f"verify {mode}", ver, m.jsonio.dumps(out["report"].as_dict()))
    return problems


def cover_fuzz_parity(m, root, inp, out):
    return _fuzz_parity(m, root, inp, out, "cover",
                        ["--grid", "14", "--jitter", "10", "--seed", str(inp.seed)])


def route_fuzz_parity(m, root, inp, out):
    return _fuzz_parity(m, root, inp, out, "route", ["--seed", str(inp.seed)])


def _serialized_parity(*modes: str) -> Callable:
    """`rectbeacon <mode> -` on the input prints the job's JSON for that mode."""
    def parity(m, root, inp, out):
        problems = []
        for mode in modes:
            _expect(problems, mode, _cli(root, [mode, "-"], inp.text), out[mode][-1])
        return problems
    return parity


place_large_parity = _serialized_parity("kernel", "cover", "route")
kernel_large_parity = _serialized_parity("kernel")


# ------------------------------------------------------------------ registry


class Workload:
    """Inputs: passes over `rungs`, each with every `fixed` family and the next
    of `random_per_rung` corpus polygons per rung.  Every stratum (family,
    rung) weighs the same in the mix, and so does every input within it.
    `tail_level` is fixed so that runs compare the same percentile; like the
    median it falls on the middle input of a stratum (strata and inputs per
    stratum are odd in number), where a weighted quantile does not jump
    between inputs as the job count moves."""

    def __init__(self, rungs: Sequence[int], fixed: Sequence[str], random_per_rung: int,
                 tail_level: float, job: Callable, check: Callable, parity: Callable,
                 post: Callable = None):
        self.rungs = tuple(rungs)
        self.fixed = tuple(fixed)
        self.random_per_rung = random_per_rung
        self.tail_level = tail_level
        self.job = job
        self.check = check
        self.parity = parity
        self.post = post

    def build(self, m, seed: int) -> List[Input]:
        return _build(m, seed, self.rungs, self.fixed, self.random_per_rung)


WORKLOADS = {
    # Attraction and the sampling verifier do nearly all the work; paths
    # start at interior samples.  5 strata: p50 and p70 sit mid-stratum.
    "cover_fuzz": Workload((12, 20, 28, 36, 44), (), 3, 0.7,
                           cover_fuzz_job, cover_fuzz_check, cover_fuzz_parity),
    # The same attraction layer, but paths start at vertices (all ordered
    # vertex pairs) and beacon-to-beacon calls go through the graph memo.
    "route_fuzz": Workload((8, 12, 16, 20, 26), (), 3, 0.7,
                           route_fuzz_job, route_fuzz_check, route_fuzz_parity),
    # Placement and piece construction; no attraction path is simulated.
    # 9 strata: p50 and 6.5/9 sit mid-stratum; at 6.5/9 sits the n = 54
    # coverage spiral, which runs in every pass and so has several jobs.
    "place_large": Workload((36, 54, 80), ("comb", "coverage_spiral"), 3, 6.5 / 9,
                            place_large_job, place_large_check, place_large_parity,
                            place_large_post),
    # Validation and the kernel at sizes where placement would take minutes.
    "kernel_large": Workload((64, 256, 1024), ("comb", "uniform_spiral"), 1, 7.5 / 9,
                             kernel_large_job, kernel_large_check, kernel_large_parity,
                             kernel_large_post),
}
