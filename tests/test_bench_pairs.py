"""tools/bench_pairs.py on two stub checkouts whose benchmark command
prints a fixed result: no perfbench run is started."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, correct: bool) -> Path:
    """A checkout whose benchmark prints one result line, correct or not."""
    root.mkdir()
    result = {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
              "metrics": {"jobs_per_s": {"value": 2.0, "unit": "1/s"}}}
    (root / "stub.py").write_text("print('# failed_share 1/4 jobs attempted')\n"
                                  f"print({json.dumps(json.dumps(result))})\n")
    spec = {"command": [sys.executable, "stub.py"], "run_seconds": 1,
            "workloads": [{"name": "stub_work"}],
            "end_to_end": [{"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_pairs_of_correct_runs_are_summarized(tmp_path):
    tool = _bench_pairs()
    parent, change = _checkout(tmp_path / "parent", True), _checkout(tmp_path / "change", True)
    out = tmp_path / "bench.json"
    assert tool.main([str(parent), str(change), "--out", str(out), "--seed", "5"]) == 0
    record = json.loads(out.read_text())
    summary = record["workloads"]["stub_work"]["summary"]["jobs_per_s"]
    assert summary["pairs"] == tool.PAIRS and summary["change"]["median"] == 2.0
    assert record["seeds"][0] == 5


def test_a_run_that_fails_its_own_check_stops_the_comparison(tmp_path):
    """perfbench/run.py exits 0 with "correct": false; such a run must not
    enter the medians, and the error names the checkout, the workload and
    the seed."""
    tool = _bench_pairs()
    parent, change = _checkout(tmp_path / "parent", True), _checkout(tmp_path / "change", False)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stop:
        tool.main([str(parent), str(change), "--out", str(out), "--seed", "7"])
    message = str(stop.value.code)
    assert str(change) in message and "stub_work" in message and "seed 7" in message, message
    assert "# failed_share 1/4" in message
    assert not out.exists()
