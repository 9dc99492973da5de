import json
import pathlib
import time

import jsonschema
import pytest

from conftest import counting
from golden_cases import GOLDEN_CASES

from toricarcs.cli import COMMANDS, InputError, emit_document, main, parse_input

ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

SCHEMA = json.loads((ROOT / "docs" / "output.schema.json").read_text())


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden files -------------------------------------------------------------


@pytest.mark.parametrize("name,fixture,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, fixture, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    full = argv + ["--input", str(FIXTURES / fixture)]
    code, out, err = run_cli(full, capsys)
    assert code == 0, err
    expected = (GOLDEN / f"{name}.json").read_text()
    assert out == expected
    # byte-identical across runs
    code2, out2, _ = run_cli(full, capsys)
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize("name,fixture,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_validates_against_schema(name, fixture, argv):
    payload = json.loads((GOLDEN / f"{name}.json").read_text())
    jsonschema.validate(payload, SCHEMA)


# -- parsing --------------------------------------------------------------------


def test_parse_minimal_document():
    doc = parse_input('{"dim":2,"cones":[[[1,0],[1,2]]]}')
    assert doc.dim == 2
    assert doc.cones[0].key == ((1, 0), (1, 2))
    assert doc.warnings == []


def test_parse_rejects_float_literal():
    with pytest.raises(InputError):
        parse_input('{"dim":2.0,"cones":[[[1,0]]]}')
    with pytest.raises(InputError):
        parse_input('{"dim":2,"cones":[[[1.5,0]]]}')


def test_parse_rejects_lineality():
    with pytest.raises(InputError):
        parse_input('{"dim":2,"cones":[[[1,0],[-1,0]]]}')


def test_parse_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        parse_input('{"dim":2,"cones":[[[1,0,0]]]}')


def test_parse_rejects_unknown_field():
    with pytest.raises(InputError):
        parse_input('{"dim":2,"cones":[[[1,0]]],"extra":1}')


def test_parse_rejects_malformed_json():
    with pytest.raises(InputError):
        parse_input("{not json")


def test_parse_normalizes_ray_with_warning():
    doc = parse_input('{"dim":2,"cones":[[[2,4],[1,0]]]}')
    assert doc.cones[0].key == ((1, 0), (1, 2))
    assert doc.warnings == ["warning: ray [2, 4] normalized to [1, 2]"]


def test_emit_parse_round_trip_is_byte_identical():
    for fixture in ["a1.json", "a2.json", "quadrant.json", "quadrant_ideal.json", "a1_ideal.json"]:
        text = (FIXTURES / fixture).read_text()
        assert emit_document(parse_input(text)) == text


# -- exit codes and streams --------------------------------------------------------


def test_exit_code_2_on_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim":2,"cones":[[[1,0],[-1,0]]]}')
    code, out, err = run_cli(["smooth", "--input", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert "strongly convex" in err


def test_exit_code_1_on_domain_error(capsys, tmp_path):
    ray_doc = tmp_path / "ray.json"
    ray_doc.write_text('{"dim":2,"cones":[[[1,2]]]}')
    code, out, err = run_cli(["hilbert", "--input", str(ray_doc)], capsys)
    assert code == 1
    assert out == ""
    assert "Hilbert" in err or "unsupported" in err


def test_exit_code_1_on_nonsmooth_witness(capsys):
    code, out, err = run_cli(
        ["witness", "--v", "1,1", "--v2", "2,1", "--input", str(FIXTURES / "a1.json")],
        capsys,
    )
    assert code == 1
    assert "smooth" in err


def test_witness_output_does_not_grow_with_precision(capsys, tmp_path):
    ray_doc = tmp_path / "ray.json"
    ray_doc.write_text('{"dim":2,"cones":[[[1,0]]]}')
    code, out, err = run_cli(
        ["witness", "--v", "1,0", "--v2", "3,0", "--precision", "100000", "--input", str(ray_doc)],
        capsys,
    )
    assert code == 0, err
    assert len(out.encode()) < 1024
    assert json.loads(out)["verified"] is True


def test_exit_code_1_on_bad_contact_level(capsys):
    code, out, err = run_cli(
        ["contact", "--p", "0", "--input", str(FIXTURES / "quadrant_ideal.json")],
        capsys,
    )
    assert code == 1


def test_exit_code_1_on_broken_internal_invariant(capsys, monkeypatch):
    def broken(doc, args):
        raise ArithmeticError("lift left the chart cone")

    monkeypatch.setitem(COMMANDS, "smooth", broken)
    code, out, err = run_cli(["smooth", "--input", str(FIXTURES / "a1.json")], capsys)
    assert (code, out, err) == (1, "", "error: lift left the chart cone\n")


def test_exit_code_2_on_poly_document_without_poly_field(capsys, tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text('{"terms":[[1,[0,1]]]}')
    code, out, err = run_cli(
        ["valuation", "--v", "1,1", "--poly", str(poly), "--input", str(FIXTURES / "a1.json")],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "'poly'" in err


@pytest.mark.parametrize("text", ['{"poly":[[1,[0,1]]', '{"poly":[[1.5,[0,1]]]}'], ids=["malformed", "float"])
def test_exit_code_2_on_bad_json_in_poly_file(text, capsys, tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(text)
    argv = ["valuation", "--v", "1,1", "--poly", str(poly), "--input", str(FIXTURES / "a1.json")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    # the same text as the main document gives the same diagnostic
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    code_doc, _, err_doc = run_cli(["valuation", "--v", "1,1", "--input", str(doc)], capsys)
    assert (code_doc, err_doc) == (2, err)


def test_warning_goes_to_stderr_result_to_stdout(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text('{"dim":2,"cones":[[[2,4],[1,0]]]}')
    code, out, err = run_cli(["dual", "--input", str(doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"generators": [[0, 1], [2, -1]]}
    assert "normalized" in err


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"dim":2,"cones":[[[1,0],[0,1]]]}'))
    code, out, err = run_cli(["smooth"], capsys)
    assert code == 0
    assert out == '{"smooth":true}\n'


def test_missing_ideal_is_input_error(capsys):
    code, out, err = run_cli(
        ["contact", "--p", "1", "--input", str(FIXTURES / "a1.json")], capsys
    )
    assert code == 2
    assert "ideal" in err


def test_fan_document_orbits(capsys, tmp_path):
    doc = tmp_path / "fan.json"
    doc.write_text('{"dim":2,"cones":[[[1,0],[0,1]],[[0,1],[-1,0]]]}')
    code, out, err = run_cli(["orbits", "--bound", "1", "--input", str(doc)], capsys)
    assert code == 0
    nodes = json.loads(out)["nodes"]
    points = {tuple(n["v"]) for n in nodes if n["stratum"] == []}
    assert (-1, 1) in points and (1, 1) in points


def test_cone_index_selection(capsys, tmp_path):
    doc = tmp_path / "two.json"
    doc.write_text('{"dim":2,"cones":[[[0,1],[1,0]],[[1,0],[1,-2]]]}')
    code, out, _ = run_cli(["smooth", "--cone", "0", "--input", str(doc)], capsys)
    assert code == 0 and json.loads(out) == {"smooth": True}
    code, out, _ = run_cli(["smooth", "--cone", "1", "--input", str(doc)], capsys)
    assert code == 0 and json.loads(out) == {"smooth": False}
    code, out, err = run_cli(["smooth", "--cone", "7", "--input", str(doc)], capsys)
    assert code == 2
    assert "out of range" in err


def test_orbits_takes_no_cone_option(capsys):
    # orbits reads the whole document; a --cone it would ignore is refused as an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--bound", "0", "--cone", "0", "--input", str(FIXTURES / "a1.json")])
    assert exc.value.code == 2
    assert "--cone" in capsys.readouterr().err


def test_dominates_reads_the_stratum_index_on_the_cone_option(capsys, tmp_path):
    doc = tmp_path / "two.json"
    doc.write_text('{"dim":2,"cones":[[[0,1],[1,0]],[[1,0],[1,-2]]]}')
    argv = ["dominates", "--v=1,-1", "--stratum2", "0", "--v2", "1", "--input", str(doc)]
    # ray 0 is (1, -2) on cone 1 and (0, 1) on cone 0; the open orbit of v = (1, -1) lies in cone 1
    code, out, _ = run_cli(argv + ["--cone", "1"], capsys)
    assert code == 0 and json.loads(out) == {"dominates": True}
    code, out, _ = run_cli(argv + ["--cone", "0"], capsys)
    assert code == 0 and json.loads(out) == {"dominates": False}


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_orbits_beyond_the_work_budget_exits_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        ["orbits", "--bound", "100000", "--input", str(FIXTURES / "a1.json")], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    # A_1 boxes: 200001^2 + 2 * 200001 + 1 = 200002^2 points, against a budget of 512
    assert "40000800004" in err and "512" in err


def test_orbits_on_a_large_orthant_exits_1_before_the_face_walk(capsys, monkeypatch, tmp_path):
    import toricarcs.cones as cones

    # a simplicial cone with 16 rays has exactly 2^16 faces, each a stratum with its origin in the box
    walks = counting(monkeypatch, cones, "_face_keys")
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"dim": 16, "cones": [[[int(i == j) for j in range(16)] for i in range(16)]]}))
    start = time.perf_counter()
    code, out, err = run_cli(["orbits", "--bound", "0", "--input", str(doc)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "at least 65536 box points" in err and "512" in err
    assert walks == []


def test_sing_beyond_the_work_budget_exits_1_at_once(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    rays = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 2, 3, 4, 10**9]]
    doc.write_text(json.dumps({"dim": 5, "cones": [rays]}))
    start = time.perf_counter()
    code, out, err = run_cli(["sing", "--input", str(doc)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    # the chart is simplicial, its own one simplex, whose [0, 1) box holds |det| = 10^9 points
    assert "1000000000" in err and "2048" in err


def test_sing_on_a_16_dim_chart_with_one_singular_2_face_within_a_second(capsys, tmp_path):
    # e1, (1, 2, 0, ...), e3..e16 is simplicial: one box of |det| = 2 points, no face walk
    rays = [[int(i == j) for j in range(16)] for i in range(16)]
    rays[1] = [1, 2] + [0] * 14
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"dim": 16, "cones": [rays]}))
    start = time.perf_counter()
    code, out, err = run_cli(["sing", "--input", str(doc)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert [c["v"] for c in json.loads(out)["components"]] == [[1, 1] + [0] * 14]


def test_hilbert_of_the_5_dim_cross_polytope_cone_exits_0(capsys, tmp_path):
    # its dual, the cone over [-1, 1]^5, is triangulated into simplices of sum |det| = 5! 2^5 = 3840
    doc = tmp_path / "doc.json"
    rays = [[s * (i == j) for j in range(5)] + [1] for i in range(5) for s in (1, -1)]
    doc.write_text(json.dumps({"dim": 6, "cones": [rays]}))
    code, out, err = run_cli(["hilbert", "--input", str(doc)], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["basis"]) == 3**5


def test_hilbert_beyond_the_work_budget_exits_1_at_once(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"dim": 2, "cones": [[[1, 0], [1, 10**9]]]}))
    start = time.perf_counter()
    code, out, err = run_cli(["hilbert", "--input", str(doc)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    # the dual rays (0, 1) and (10^9, -1) span a parallelepiped of 10^9 points
    assert "1000000000" in err and "50000" in err


def test_contact_beyond_the_work_budget_exits_1_at_once(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"dim": 3, "cones": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "ideal": [[1, 1, 1]]}))
    start = time.perf_counter()
    code, out, err = run_cli(["contact", "--p", "100000", "--input", str(doc)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    # the box is [0, 100001]^3, against a budget of 100000
    assert str(100002**3) in err and "100000" in err


def test_negative_first_coordinate_is_passed_with_equals(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text('{"dim":2,"cones":[[[-1,0],[0,1]]]}')
    code, out, err = run_cli(["dominates", "--v=-1,0", "--v2=-2,0", "--input", str(doc)], capsys)
    assert (code, out) == (0, '{"dominates":true}\n'), err
    # argparse reads a separate "-1,0" as an option, not as the value of --v
    with pytest.raises(SystemExit) as exc:
        main(["dominates", "--v", "-1,0", "--v2=-2,0", "--input", str(doc)])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


UNDECODABLE = {
    "not_utf8": b'{"dim":2,"cones":[[[1,0],[0,1]]]}\xff',
    "nested_100000_deep": b"[" * 100000 + b"]" * 100000,
    "integer_over_4300_digits": b'{"dim":2,"cones":[[[1' + b"0" * 4400 + b',1]]]}',
}


@pytest.mark.parametrize("flag", ["--input", "--poly"])
@pytest.mark.parametrize("data", UNDECODABLE.values(), ids=UNDECODABLE)
def test_a_document_that_cannot_be_decoded_exits_2_with_one_error_line(data, flag, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    argv = ["valuation", "--v", "1,1", "--input", str(FIXTURES / "a1.json"), flag, str(bad)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
