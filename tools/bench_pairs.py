"""Compare two source checkouts with the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH.json [--seed 1]

For every workload of CHANGE_DIR's BENCHMARK.json, each of PAIRS pairs
runs its benchmark command (`python3 perfbench/run.py --workload W --seed S
--seconds T`, T its run_seconds) once in each checkout, on the same seed, in
a fresh process and with the checkout as working directory.  Pair k uses seed SEED + k, and the
parent runs first in even pairs, the change in odd ones.  Runs are
sequential, so the two sides never share the machine.

The output holds, per workload and side, the median and quartiles of every
end-to-end metric BENCHMARK.json names, every run's metrics, and for each
metric the number of pairs in which the change reads better, with ties
counted for neither side.  It also records the seeds, both commits, the
Python version and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pairs per workload: fewer cannot show a change better in nine of ten.
PAIRS = 10


def _commit(root: Path) -> str:
    """HEAD of the checkout, marked '+dirty' when its tracked files differ."""
    git = ["git", "-C", str(root)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return "unknown"
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def _run(root: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its last output line, which is one JSON object."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed in {root}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "wall_s": round(wall, 2), "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list) -> dict:
    """Median and quartiles per side, and pairs won by the change, per metric."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        p, c = _spread(parent), _spread(change)
        out[name] = {"unit": m["unit"], "better": m["better"], "parent": p, "change": c,
                     "change_over_parent": c["median"] / p["median"] if p["median"] else None,
                     "change_better_pairs": wins, "change_worse_pairs": losses,
                     "pairs": len(parent)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": spec["command"], "run_seconds": spec["run_seconds"],
        "commits": {side: _commit(root) for side, root in sides.items()},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "pairs": PAIRS, "seeds": [args.seed + k for k in range(PAIRS)],
        "order": "parent first in even pairs (0, 2, ...), change first in odd ones",
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(record["seeds"]):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(sides[side], spec["command"], workload, seed,
                                       spec["run_seconds"]))
            print(f"{workload} pair {k}: " + ", ".join(
                f"{side} {runs[side][-1]['metrics']['jobs_per_s']:.2f}" for side in sides),
                file=sys.stderr)
        record["workloads"][workload] = {"summary": summarize(runs, spec["end_to_end"]),
                                         "runs": runs}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
