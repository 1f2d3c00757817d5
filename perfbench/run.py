"""Layered benchmark of rectbeacon, run from the root of a source checkout.

    python3 perfbench/run.py --workload cover_fuzz --seed 1 --seconds 22 --trace 0

One process, one thread, a closed loop with one client: each job starts when
the previous one has finished and been checked.  A job is one polygon
through the workload's pipeline (see workloads.py).  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced jobs on the same inputs and reports the per-layer metrics, including
the tracing overhead.  Human-readable lines start with '#'; the last line
is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from clock import SpeedClock  # noqa: E402
from stats import TAIL_BEYOND, mix_throughput, mix_weights, weighted_quantile  # noqa: E402
from tracing import Recorder, per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("attraction", "clipping", "generators", "geometry", "jsonio", "kernel", "placement",
           "polygon", "regions", "transforms", "verify")
SETUP_REPEATS = 3

END_TO_END = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "ok_share": "share",
              "setup_s": "s", "peak_rss_mib": "MiB"}


class ProgramMissing(Exception):
    pass


def load_program() -> types.SimpleNamespace:
    """Import rectbeacon afresh from this checkout's src/ (never from elsewhere)."""
    src = ROOT / "src"
    if not (src / "rectbeacon" / "__init__.py").is_file():
        raise ProgramMissing(f"no rectbeacon package under {src}")
    for name in [k for k in sys.modules if k == "rectbeacon" or k.startswith("rectbeacon.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("rectbeacon")
    if Path(pkg.__file__).resolve().parent != (src / "rectbeacon").resolve():
        raise ProgramMissing(f"rectbeacon was imported from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(**{n: importlib.import_module(f"rectbeacon.{n}") for n in MODULES})


def setup(workload, seed: int, clock: SpeedClock):
    """Import, input generation and one warm-up job; returns (seconds, m,
    inputs, warm-up output), seconds normalized by the clock."""
    def call():
        m = load_program()
        inputs = workload.build(m, seed)
        return m, inputs, workload.job(m, inputs[0])

    out, error, _, seconds = clock.measure(call)
    if error is not None:
        raise error
    return (seconds,) + out


class JobResult:
    __slots__ = ("index", "key", "wall", "seconds", "traced", "problems")

    def __init__(self, index, key, wall, seconds, traced, problems):
        self.index = index
        self.key = key  # (stratum, input)
        self.wall = wall
        self.seconds = seconds  # normalized by the clock
        self.traced = traced
        self.problems = problems


def run_one(workload, m, inputs, index, clock, recorder=None, job_id=0):
    """One timed job; checking its output happens after the clock stops."""
    inp = inputs[index]

    def call():
        return workload.job(m, inp)

    if recorder is None:
        out, error, wall, seconds = clock.measure(call)
    else:
        out, error, wall, seconds = clock.measure(
            lambda: recorder.run_job(job_id, inp.family, inp.n, call))
    if error is not None:
        problems = [f"{type(error).__name__}: {error}"]
    else:
        try:
            problems = workload.check(m, inp, out)
        except Exception as exc:  # a check that cannot run fails the job
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return JobResult(index, (inp.stratum, inp.args), wall, seconds, recorder is not None, problems), out


def timed_loop(workload, m, inputs, seconds: float, clock, recorder=None):
    """Run jobs over the inputs in order until the time is up, and at least
    until every input has run and the tail has TAIL_BEYOND jobs beyond it."""
    min_jobs = max(len(inputs),
                   math.ceil(TAIL_BEYOND / (1 - workload.tail_level)))
    results, first_out = [], {}
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < min_jobs:
        index = i % len(inputs)
        if recorder is None:
            plan = [None]
        else:  # untraced and traced on the same input, alternating which goes first
            plan = [None, recorder] if i % 2 == 0 else [recorder, None]
        for rec in plan:
            res, out = run_one(workload, m, inputs, index, clock, rec, job_id=len(results))
            results.append(res)
            if out is not None:
                first_out.setdefault(index, out)
        i += 1
    return results, first_out


def end_to_end(results, setup_times, peak_rss_kib, level):
    times = [r.seconds for r in results]
    keys = [r.key for r in results]
    weights = mix_weights(keys)
    failed = sum(1 for r in results if r.problems)
    metrics = {
        "jobs_per_s": mix_throughput(keys, times),
        "job_p50_s": weighted_quantile(times, weights, 0.5),
        "job_tail_s": weighted_quantile(times, weights, level),
        "ok_share": 1 - failed / len(results),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_kib / 1024,
    }
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    clock = SpeedClock()
    try:
        setups = [setup(workload, args.seed, clock) for _ in range(SETUP_REPEATS)]
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_times = [s[0] for s in setups]
    _, m, inputs, warm = setups[-1]
    first_job_at = time.perf_counter() - T_START

    recorder = Recorder(m) if args.trace else None
    results, outputs = timed_loop(workload, m, inputs, args.seconds, clock, recorder)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Checks outside the timed region.
    loop_end = time.perf_counter()
    post = workload.post(m, inputs, outputs, args.seed) if workload.post else []
    bad_inputs = {i for i, _ in post}
    for r in results:
        if r.index in bad_inputs and not r.problems:
            r.problems = [p for i, p in post if i == r.index]
    OUT_DIR.mkdir(exist_ok=True)
    post_end = time.perf_counter()
    parity = workload.parity(m, ROOT, inputs[0], warm)
    parity_end = time.perf_counter()
    failed = [r for r in results if r.problems]
    correct = not failed and not parity and not post

    strata = sorted({inp.stratum for inp in inputs})
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"# closed loop, one client, one thread; {len(results)} jobs over {len(strata)} "
          f"strata {strata}; {len({inp.args for inp in inputs})} distinct inputs; mix: every "
          f"stratum, and every input within it, weighs the same")
    print(f"# setup_s repeats {[round(t, 4) for t in setup_times]}; "
          f"{first_job_at:.3f} s from start to the first timed job; timed loop "
          f"{loop_end - T_START - first_job_at:.3f} s, post checks {post_end - loop_end:.3f} s, "
          f"CLI parity {parity_end - post_end:.3f} s")
    print(f"# failed_share {len(failed)}/{len(results)} jobs attempted; "
          f"CLI parity {'ok' if not parity else parity}; "
          f"post checks {'ok' if not post else post[:3]}")
    for r in failed[:5]:
        print(f"# failed job on {inputs[r.index]!r}: {r.problems[:2]}")

    if args.trace:
        plain = [r for r in results if not r.traced]
        traced = [r for r in results if r.traced]
        base = mix_throughput([r.key for r in plain], [r.seconds for r in plain])
        with_trace = mix_throughput([r.key for r in traced], [r.seconds for r in traced])
        metrics = recorder.metrics(1 - with_trace / base)
        units = per_layer_names()
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        recorder.write(spans_file)
        print(f"# untraced jobs_per_s {base:.4f}, traced {with_trace:.4f}; "
              f"{len(recorder.spans)} spans in {spans_file.relative_to(ROOT)}")
        for layer, per_family in recorder.slopes.items():
            print(f"# {layer}.slope per family: "
                  + ", ".join(f"{f} {s:.3f}" for f, s in sorted(per_family.items())))
        if recorder.path_level:
            print(f"# attraction.path_tail_s at the p{100 * recorder.path_level:.1f} level")
    else:
        level = workload.tail_level
        metrics = end_to_end(results, setup_times, peak_rss_kib, level)
        units = END_TO_END
        raw = mix_throughput([r.key for r in results], [r.wall for r in results])
        print(f"# job_tail_s at the p{100 * level:.1f} level "
              f"({len(results)} jobs, at least {TAIL_BEYOND} beyond; stratum-weighted); "
              f"jobs_per_s from raw wall times {raw:.4f}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
