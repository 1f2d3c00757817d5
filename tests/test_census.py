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
    witnesses, in 8 presentations each: every cover succeeds, the witnesses
    reach case (b)'s both-walls end, and the digest is reproducible.  A
    cover that raises is listed as a failure, and the census goes on."""
    census = _census()
    names = [name for name, _ in census.corpus(4, 4, 4)]
    assert len(names) == len(set(names)) == 8 * (4 + 4 + 4 + 2)
    assert names[0] == "random_rectilinear(8, 700000) id" and names[-1] == "CASE_B_III mirror_anti"
    got = json.loads(json.dumps(census.census(census.corpus(4, 4, 4))))
    assert set(got) == {"covers", "failures", "labels", "digest"}
    assert got["covers"] == len(names) and got["failures"] == {}
    assert all(re.fullmatch(r"no_safe\[\w+\]|top\(.+\)", label) for label in got["labels"]), got["labels"]
    assert (got["labels"]["top(b-i,d1)"], got["labels"]["top(b-i,d2)"], got["labels"]["top(b-iii)"]) == (2, 2, 4)
    assert re.fullmatch(r"[0-9a-f]{64}", got["digest"])
    assert census.census(census.corpus(4, 4, 4))["digest"] == got["digest"]
    assert census.census(census.corpus(4, 4, 3))["digest"] != got["digest"]
    failed = census.census([("not a polygon", None)])
    assert failed["covers"] == 1 and list(failed["failures"]) == ["not a polygon"], failed
