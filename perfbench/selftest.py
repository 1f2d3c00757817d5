"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
each with its unit, in both modes; that a forced check failure shows in
failed_share (ok_share); and that the benchmark exits non-zero without a
result when the program's sources are missing.  Takes a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_result(result: dict, specs: list, where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, (where, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    want = {s["name"]: s["unit"] for s in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (where, set(want) ^ set(got))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (where, name)


def test_metric_names(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = subprocess.run(bench["command"] + ["--workload", workload, "--seed", "1",
                                                      "--seconds", "1", "--trace", trace],
                                  capture_output=True, text=True, cwd=ROOT, timeout=180)
            assert proc.returncode == 0, proc.stderr
            check_result(last_json(proc.stdout), specs, f"{workload} trace={trace}")
            print(f"ok: {workload} --trace {trace} emits {len(specs)} metrics with units")


def test_forced_failure() -> None:
    """A cover beacon moved off the reflex vertices fails every job."""
    workload = WORKLOADS["cover_fuzz"]
    real_job = workload.job

    def corrupted(m, inp):
        out = real_job(m, inp)
        poly = out["poly"]
        convex = [v for v, c in zip(poly.vertices, poly.classes) if c == m.polygon.CONVEX]
        out["cover"][0].beacons.append(convex[0])
        return out

    workload.job = corrupted
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "cover_fuzz", "--seed", "1", "--seconds", "1"])
    finally:
        workload.job = real_job
    result = last_json(buf.getvalue())
    assert code == 0 and result["correct"] is False, result
    assert result["failed"] == result["attempted"] > 0, result
    assert result["metrics"]["ok_share"]["value"] == 0, result
    print(f"ok: forced check failure gives failed {result['failed']}/{result['attempted']}")


def test_missing_program(bench: dict) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(bench["command"] + ["--workload", "kernel_large", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok: without the program's sources the run exits {proc.returncode} with no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_missing_program(bench)
    test_forced_failure()
    test_metric_names(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
