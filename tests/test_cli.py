import json
import os
import subprocess
import sys

import pytest

from shapes import (
    OVERLAPPING_EDGES,
    STEP_FLOOR,
    T_JUNCTION,
    U_SHAPE,
    VERTEX_ON_EDGE,
    W_SHAPE,
    W_SHAPE_VERTICAL,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

U_JSON = json.dumps({"vertices": [["0", "0"], ["6", "0"], ["6", "4"], ["4", "4"],
                                  ["4", "2"], ["2", "2"], ["2", "4"], ["0", "4"]]})


def run(args, inp=None, module="rectbeacon.cli"):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", module] + args,
                          capture_output=True, text=True, input=inp, env=env)


def test_package_runs_as_the_cli():
    """python -m rectbeacon is the command line: it prints what python -m
    rectbeacon.cli prints, with the same exit code, also on malformed
    input."""
    for args, inp, code in ((["gen", "random", "-n", "14", "--seed", "1"], None, 0), (["cover", "-"], "{", 2)):
        got, want = run(args, inp, module="rectbeacon"), run(args, inp)
        assert want.returncode == code, (args, want.stderr)
        assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout, want.stderr), args


def test_gen_cover_verify_pipeline(tmp_path):
    gen = run(["gen", "spiral", "--kind", "coverage", "-r", "7"])
    assert gen.returncode == 0
    cov = run(["cover", "-"], inp=gen.stdout)
    assert cov.returncode == 0
    beacons = json.loads(cov.stdout)
    assert beacons["mode"] == "cover"
    assert len(beacons["beacons"]) == 3
    # The polygon comes on stdin, so the beacons come from a file.
    path = tmp_path / "beacons.json"
    path.write_text(cov.stdout)
    ver = run(["verify", "cover", "-", str(path)], inp=gen.stdout)
    assert ver.returncode == 0, ver.stderr
    assert json.loads(ver.stdout)["verdict"] == "pass"


def test_verify_exit_codes(tmp_path):
    poly = tmp_path / "u.json"
    poly.write_text(U_JSON)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"beacons": [["2", "2"]], "mode": "cover"}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beacons": [["5", "4"]], "mode": "cover"}))
    assert run(["verify", "cover", str(poly), str(good), "--grid", "10"]).returncode == 0
    assert run(["verify", "cover", str(poly), str(bad), "--grid", "10"]).returncode == 1


SQUARE4_JSON = json.dumps({"vertices": [["0", "0"], ["4", "0"], ["4", "4"], ["0", "4"]]})


@pytest.mark.parametrize("mode", ["cover", "route"])
@pytest.mark.parametrize("polygon, beacons", [
    (SQUARE4_JSON, [["9", "9"]]),
    # (3, 3) lies in the U's notch, between its towers.
    (U_JSON, [["1", "1"], ["3", "3"]]),
], ids=["square", "u_shape"])
def test_verify_rejects_a_beacon_outside_the_polygon(tmp_path, mode, polygon, beacons):
    poly = tmp_path / "poly.json"
    poly.write_text(polygon)
    path = tmp_path / "beacons.json"
    path.write_text(json.dumps({"beacons": beacons, "mode": mode}))
    got = run(["verify", mode, str(poly), str(path), "--grid", "6"])
    assert got.returncode == 2, got.stdout
    assert "is outside the polygon" in got.stderr
    assert got.stdout == ""


def test_malformed_input_exit_2(tmp_path):
    poly = tmp_path / "bad.json"
    poly.write_text("{not json")
    assert run(["kernel", str(poly)]).returncode == 2
    poly.write_text(json.dumps({"vertices": [["0", "0"], ["1", "1"], ["2", "0"], ["0", "2"]]}))
    assert run(["kernel", str(poly)]).returncode == 2


def _ring_json(ring):
    return json.dumps({"vertices": [[str(x), str(y)] for x, y in ring]})


@pytest.mark.parametrize("ring", [T_JUNCTION, VERTEX_ON_EDGE, OVERLAPPING_EDGES, W_SHAPE,
                                  W_SHAPE_VERTICAL],
                         ids=["t_junction", "vertex_on_edge", "overlapping_edges",
                              "general_position_horizontal", "general_position_vertical"])
def test_kernel_rejects_invalid_polygon_exit_2(ring):
    r = run(["kernel", "-"], inp=_ring_json(ring))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")


def test_kernel_accepts_aligned_reflex_vertices_on_the_boundary():
    assert run(["kernel", "-"], inp=_ring_json(STEP_FLOOR)).returncode == 0


def test_kernel_clockwise_input_same_as_counterclockwise():
    ccw = run(["kernel", "-"], inp=_ring_json(U_SHAPE))
    cw = run(["kernel", "-"], inp=_ring_json(U_SHAPE[::-1]))
    assert ccw.returncode == cw.returncode == 0
    assert cw.stdout == ccw.stdout


def test_round_trip_exact():
    gen = run(["gen", "random", "-n", "18", "--seed", "5"])
    assert gen.returncode == 0
    again = run(["gen", "random", "-n", "18", "--seed", "5"])
    assert gen.stdout == again.stdout  # determinism, byte for byte
    data = json.loads(gen.stdout)
    frac = json.dumps({"vertices": [["7/2", "0"], ["9/2", "0"], ["9/2", "1/3"], ["7/2", "1/3"]]})
    k = run(["kernel", "-"], inp=frac)
    out = json.loads(k.stdout)
    assert out["kernel"] == [["7/2", "0"], ["9/2", "0"], ["9/2", "1/3"], ["7/2", "1/3"]]


def test_simulate_dead_point():
    r = run(["simulate", "-", "--from", "5,3", "--beacon", "1,3"], inp=U_JSON)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["outcome"] == "dead"
    assert out["dead_reason"] == "perpendicular_foot"
    assert out["points"][-1] == ["4", "3"]


def test_simulate_fractional_points():
    r = run(["simulate", "-", "--from", "1/2,3/2", "--beacon", "3,3"],
            inp=json.dumps({"vertices": [["0", "0"], ["4", "0"], ["4", "4"],
                                         ["2", "4"], ["2", "2"], ["0", "2"]]}))
    out = json.loads(r.stdout)
    assert out["outcome"] == "reached"
    assert ["4/3", "2"] in out["points"]


def test_simulate_malformed_point_exits_2():
    r = run(["simulate", "-", "--from", "1/0,0", "--beacon", "1,3"], inp=U_JSON)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: bad point ") and r.stderr.count("\n") == 1, r.stderr
    assert "Traceback" not in r.stderr


def test_coordinates_at_the_digit_limit_round_trip():
    """A number of 4300 digits, exponent included, is read and printed back."""
    big = "9" * 4299 + "e1"
    r = run(["kernel", "-"], inp=_ring_json([(0, 0), (big, 0), (big, 1), (0, 1)]))
    assert r.returncode == 0, r.stderr
    assert ["9" * 4299 + "0", "1"] in json.loads(r.stdout)["kernel"]


def test_simulate_oversized_point_exits_2():
    r = run(["simulate", "-", "--from", "1e5000,0", "--beacon", "1,3"], inp=U_JSON)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: bad point ") and r.stderr.count("\n") == 1, r.stderr


def test_kernel_square_is_input():
    sq = json.dumps({"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]})
    r = run(["kernel", "-"], inp=sq)
    out = json.loads(r.stdout)
    assert sorted(out["kernel"]) == sorted([["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]])


def test_kernel_oracle_flag_agrees():
    a = run(["kernel", "-"], inp=U_JSON)
    b = run(["kernel", "-", "--oracle"], inp=U_JSON)
    ka = json.loads(a.stdout)["kernel"]
    kb = json.loads(b.stdout)["kernel"]
    assert sorted(map(tuple, ka)) == sorted(map(tuple, kb))


def test_render_svg(tmp_path):
    out = tmp_path / "u.svg"
    r = run(["render", "-", "--kernel", "-o", str(out)], inp=U_JSON)
    assert r.returncode == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "<polygon" in text and "</svg>" in text


def test_render_path_overlay(tmp_path):
    sim = run(["simulate", "-", "--from", "5,3", "--beacon", "1,3"], inp=U_JSON)
    path_file = tmp_path / "path.json"
    path_file.write_text(sim.stdout)
    r = run(["render", "-", "--path", str(path_file)], inp=U_JSON)
    assert r.returncode == 0
    assert "polyline" in r.stdout


def test_route_subcommand():
    r = run(["route", "-"], inp=U_JSON)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["mode"] == "route"
    assert len(out["beacons"]) <= 1


def test_bench_csv_schema():
    r = run(["bench", "--sizes", "24,40", "--runs", "1"])
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,t_kernel_ns,t_oracle_ns"
    assert len(lines) == 3
    for line in lines[1:]:
        n, tk, to = line.split(",")
        assert int(n) >= 24 and int(tk) > 0 and int(to) > 0


def test_merge_collinear_flag():
    poly = json.dumps({"vertices": [["0", "0"], ["1", "0"], ["2", "0"],
                                    ["2", "2"], ["0", "2"]]})
    assert run(["kernel", "-"], inp=poly).returncode == 2
    assert run(["kernel", "-", "--merge-collinear"], inp=poly).returncode == 0


def test_gen_comb_kernel_is_the_base():
    gen = run(["gen", "comb", "-k", "5"])
    assert gen.returncode == 0
    k = run(["kernel", "-"], inp=gen.stdout)
    assert k.returncode == 0
    assert sorted(json.loads(k.stdout)["kernel"]) == sorted(
        [["0", "0"], ["18", "0"], ["18", "11"], ["0", "11"]])


_GOOD_BEACONS = json.dumps({"beacons": [["2", "2"]], "mode": "route"})


@pytest.mark.parametrize("command, files", [
    (["verify", "route", "{poly}", "{beacons}", "--pairs", "{missing}"], {}),
    (["verify", "route", "{poly}", "{beacons}", "--pairs", "{bad}"],
     {"bad": '{"pairs": [[["a","1"],["2","3"]]]}'}),
    (["verify", "route", "{poly}", "{beacons}", "--pairs", "{bad}"], {"bad": '{"pairs": [[1]]}'}),
    (["render", "{poly}", "--path", "{missing}"], {}),
    (["render", "{poly}", "--path", "{bad}"], {"bad": '{"points": 5}'}),
    (["kernel", "{bad}"], {"bad": '{"vertices": 5}'}),
    (["kernel", "{bad}"], {"bad": "5"}),
    (["kernel", "{bad}"], {"bad": "null"}),
    (["verify", "cover", "{poly}", "{bad}"], {"bad": '{"beacons": 7}'}),
    (["verify", "cover", "{poly}", "{bad}"], {"bad": "5"}),
    (["verify", "cover", "{poly}", "{bad}"], {"bad": "null"}),
    (["kernel", "{bad}"], {"bad": _ring_json([(0, 0), (2, 0), (2, 2), ("1/0", 2)])}),
    (["verify", "route", "{poly}", "{beacons}", "--pairs", "{bad}"],
     {"bad": '{"pairs": [[["1/0","1"],["2","3"]]]}'}),
    (["kernel", "{bad}"], {"bad": _ring_json([(0, 0), ("1e5000", 0), ("1e5000", 1), (0, 1)])}),
    (["kernel", "{bad}"], {"bad": _ring_json([(0, 0), ("1e10000000", 0), ("1e10000000", 1), (0, 1)])}),
    (["kernel", "{bad}"], {"bad": _ring_json([(0, 0), (1, 0), (1, "1E-4300"), (0, "1E-4300")])}),
    (["cover", "{bad}"], {"bad": _ring_json([(0, 0), ("9" * 4301, 0), ("9" * 4301, 1), (0, 1)])}),
    (["verify", "cover", "{poly}", "{bad}"], {"bad": '{"beacons": [["2", "2e9999"]]}'}),
    (["kernel", "{bad}"], {"bad": '{"vertices": [[0, 0], [2.5, 0], [2.5, 2], [0, 2]]}'}),
    (["verify", "cover", "{poly}", "{bad}"], {"bad": '{"beacons": [[true, "2"]]}'}),
], ids=["pairs_missing", "pairs_bad_number", "pairs_short", "path_missing", "path_not_list",
        "polygon_not_list", "polygon_number", "polygon_null", "beacons_not_list",
        "beacons_number", "beacons_null", "polygon_zero_denominator", "pairs_zero_denominator",
        "polygon_exponent_past_digit_limit", "polygon_exponent_of_eight_digits",
        "polygon_negative_exponent_at_digit_limit", "polygon_digits_past_limit",
        "beacons_exponent_past_digit_limit", "polygon_json_float", "beacons_json_bool"])
def test_unreadable_input_exits_2_with_one_error_line(tmp_path, command, files):
    paths = {"poly": tmp_path / "u.json", "beacons": tmp_path / "b.json",
             "missing": tmp_path / "missing.json", "bad": tmp_path / "bad.json"}
    paths["poly"].write_text(U_JSON)
    paths["beacons"].write_text(_GOOD_BEACONS)
    for name, text in files.items():
        paths[name].write_text(text)
    r = run([arg.format(**paths) for arg in command])
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: cannot read ") and r.stderr.count("\n") == 1, r.stderr
    assert "Traceback" not in r.stderr


def test_json_coordinates_are_strings_or_integers_never_floats():
    """A JSON float is rejected by name, not rounded to the nearest rational;
    JSON integers read as their strings do."""
    x = "0.12345678901234567890"
    r = run(["kernel", "-"], inp=f'{{"vertices": [[0, 0], [{x}, 0], [{x}, 1], [0, 1]]}}')
    assert r.returncode == 2, r.stdout
    assert "not 0.12345678901234568" in r.stderr and r.stderr.count("\n") == 1, r.stderr
    assert r.stdout == ""
    ints = run(["kernel", "-"], inp=json.dumps({"vertices": [[0, 0], [6, 0], [6, 4], [4, 4],
                                                             [4, 2], [2, 2], [2, 4], [0, 4]]}))
    assert ints.returncode == 0, ints.stderr
    assert ints.stdout == run(["kernel", "-"], inp=U_JSON).stdout


@pytest.mark.parametrize("flags", [["--grid", "-1"], ["--grid", "0"], ["--jitter", "-5"]],
                         ids=["grid_negative", "grid_0", "jitter_negative"])
def test_verify_rejects_a_density_it_would_not_run(tmp_path, flags):
    poly = tmp_path / "u.json"
    poly.write_text(U_JSON)
    beacons = tmp_path / "b.json"
    beacons.write_text(json.dumps({"beacons": [["2", "2"]], "mode": "cover"}))
    r = run(["verify", "cover", str(poly), str(beacons)] + flags)
    assert r.returncode == 2, r.stdout
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("command", [
    ["gen", "spiral", "-r", "-2"],
    ["gen", "spiral", "--kind", "routing", "-r", "0"],
    ["gen", "spiral", "--kind", "uniform", "-r", "-1"],
    ["bench", "--runs", "0"],
    ["bench", "--sizes", "a"],
    ["bench", "--sizes", "0"],
    ["gen", "comb", "-k", "0"],
], ids=["coverage_negative_r", "routing_r_0", "uniform_negative_r", "bench_no_runs", "bench_bad_sizes",
        "bench_size_0", "comb_k_0"])
def test_bad_argument_exits_2_with_one_error_line(command):
    r = run(command)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
    assert r.stdout == ""
