"""tools/census.py on a tiny corpus of its four groups, on this checkout."""

import importlib.util
import json
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"


def _census():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_counts_the_labels_of_a_tiny_corpus():
    """Four fuzz seeds of each random group, spirals r <= 4 and the two
    witnesses, in 8 presentations each: every cover and every route
    succeeds, the witnesses reach case (b)'s both-walls end, every route
    trace has its root, and both digests are reproducible.  A placement
    that raises is listed as a failure, and the census goes on."""
    census = _census()
    names = [name for name, _ in census.corpus(4, 4, 4)]
    assert len(names) == len(set(names)) == 8 * (4 + 4 + 4 + 2)
    assert names[0] == "random_rectilinear(8, 700000) id" and names[-1] == "CASE_B_III mirror_anti"
    got = json.loads(json.dumps(census.census(census.corpus(4, 4, 4))))
    assert set(got) == {"covers", "failures", "labels", "digest",
                        "routes", "route_failures", "route_labels", "route_digest"}
    assert got["covers"] == got["routes"] == len(names) and got["failures"] == got["route_failures"] == {}
    assert all(re.fullmatch(r"no_safe\[\w+\]|top\(.+\)", label) for label in got["labels"]), got["labels"]
    assert (got["labels"]["top(b-i,d1)"], got["labels"]["top(b-i,d2)"], got["labels"]["top(b-iii)"]) == (2, 2, 4)
    assert got["route_labels"]["route_root"] == len(names), got["route_labels"]
    assert all(re.fullmatch(r"route[_(].+|[ABC]\d?", label) for label in got["route_labels"]), got["route_labels"]
    assert got["route_digest"] != got["digest"]
    again, fewer = census.census(census.corpus(4, 4, 4)), census.census(census.corpus(4, 4, 3))
    for key in ("digest", "route_digest"):
        assert re.fullmatch(r"[0-9a-f]{64}", got[key])
        assert again[key] == got[key] and fewer[key] != got[key], key
    failed = census.census([("not a polygon", None)])
    assert failed["covers"] == failed["routes"] == 1, failed
    assert list(failed["failures"]) == list(failed["route_failures"]) == ["not a polygon"], failed
