import io
import json
import os
import sys

import pytest

from qlike import catalog
from qlike.bundles import SplittingType
from qlike.cli import main
from test_loader_fuzz import QUADRUPLE


FIXTURES = os.path.join(os.path.dirname(catalog.__file__), "fixtures", "v1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fixture_exit_zero(capsys):
    path = os.path.join(FIXTURES, "conic_r3.json")
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "rho-star-quaternionic"
    assert report["flags"]["cr"] is True
    assert report["verdict"] == "ok"


def test_analyze_complex_flag(capsys):
    path = os.path.join(FIXTURES, "conic_r3.json")
    code, out, _ = run_cli(capsys, "analyze", path, "--complex")
    assert code == 0
    report = json.loads(out)
    assert all(c["name"] != "reality" for c in report["validation"]["checks"])


def test_analyze_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "complex", "dim": 3, "k": 1, '
                   '"spanning": [["z0^2 + sqrt|bogus"]]}')
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2


# a rank-1 structure with k=2 fails its rank check
RANK_ONE = {"mode": "complex", "dim": 4, "k": 2,
            "spanning": [["z0", "z1", "0", "0"], ["2*z0", "2*z1", "0", "0"]]}


def test_analyze_invalid_structure_exit_two(tmp_path, capsys):
    constant = {"mode": "complex", "dim": 3, "k": 1,
                "spanning": [["1", "0", "0"]]}
    for structure, failing in ((constant, "immersion"),
                               (RANK_ONE, "generic-rank")):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(structure))
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "invalid"
        status = {c["name"]: c["status"]
                  for c in report["validation"]["checks"]}
        assert status[failing] == "fail"


def test_dual_round_trip(tmp_path, capsys):
    path = os.path.join(FIXTURES, "conic_r3.json")
    code, out, _ = run_cli(capsys, "dual", path)
    assert code == 0
    dual = json.loads(out)
    assert dual["dim"] == 3 and dual["k"] == 2
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(dual))
    code, out, _ = run_cli(capsys, "analyze", str(dual_path))
    assert code == 0
    assert json.loads(out)["label"] == "rho-quaternionic"


def test_twistor_catalog_match(capsys):
    code, out, _ = run_cli(capsys, "twistor", "--catalog", "veronese:3")
    assert code == 0
    report = json.loads(out)
    assert report["normal"]["normal"] == [5, 5]
    assert report["normal"]["match"] is True


def test_twistor_catalog_mismatch_exit_one(capsys, monkeypatch):
    entry = catalog.entry_by_name("veronese:2")
    wrong = catalog.CatalogEntry(entry.name, entry.kind, entry.build,
                                 SplittingType.of([9]), "closed-form")
    monkeypatch.setattr(catalog, "entry_by_name", lambda name: wrong)
    code, out, _ = run_cli(capsys, "twistor", "--catalog", "veronese:2")
    assert code == 1
    assert json.loads(out)["normal"]["match"] is False


def test_twistor_unknown_catalog_exit_two(capsys):
    code, out, err = run_cli(capsys, "twistor", "--catalog", "nonsense:9")
    assert code == 2


@pytest.mark.parametrize("name", ["conic-r3", "quaternionic:1"])
def test_twistor_structure_catalog_entry_exit_two(capsys, name):
    code, out, err = run_cli(capsys, "twistor", "--catalog", name)
    assert code == 2
    assert "%r is a structure" % name in err and "Traceback" not in err


def test_twistor_file_input(tmp_path, capsys):
    spec = {"algebra": "sl(3)", "representation": "adjoint",
            "sl2": {"nilpotent": "minimal"}, "u_basis": "sl2-image",
            "name": "file-min"}
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "twistor", "--file", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["normal"]["normal"] == [1, 1]
    assert report["dimension"]["orbit_consistency"] is True


def test_twistor_file_with_a_non_sl2_image_u_skips_the_adjoint_checks(
        tmp_path, capsys):
    # U = V_4 inside the adjoint sl(3) of the principal triple (F = E21 +
    # E32): w = E13 is the weight-4 vector killed by ad(E), and the rows are
    # w, ad(F) w, ..., ad(F)^4 w.  The adjoint formula and the orbit
    # dimension describe U = tau(sl2) only, so neither runs here.
    u_basis = [[0, 1, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 1, 0, 0, 0, 0],
               [0, 0, 0, 0, 0, 0, 1, -1], [0, 0, 3, 0, 0, -3, 0, 0],
               [0, 0, 0, 0, 6, 0, 0, 0]]
    spec = {"algebra": "sl(3)", "representation": "adjoint",
            "sl2": {"nilpotent": "principal"}, "u_basis": u_basis,
            "name": "adjoint-v4"}
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "twistor", "--file", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["normal"]["curve_degree"] == 4
    assert report["normal"]["normal"] == [3, 3]
    assert "adjoint_formula" not in report["normal"]["checks"]
    assert report["dimension"] == {"dim_Z": 3, "tangent_rank": 4}


def test_lie_jm_output(capsys):
    code, out, _ = run_cli(capsys, "lie-jm", "--algebra", "sl(3)",
                           "--nilpotent", "principal")
    assert code == 0
    report = json.loads(out)
    assert report["adjoint_multiplicities"] == {"2": 1, "4": 1}
    assert report["triple_Y_first"]["Y"] == report["triple_EHF"]["F"]


def test_verify_core_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "core")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_random_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "random",
                             "--seed", "3", "--count", "3")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "random",
                             "--seed", "3", "--count", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["pass"] is True and report["seed"] == 3


def test_verify_negative_count_exit_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "random",
                             "--count", "-1")
    assert code == 2
    assert out == ""
    assert "--count must be nonnegative" in err and "Traceback" not in err


def test_verify_zero_count_runs_the_two_quadruples(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "random",
                           "--count", "0")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 0
    assert [c["name"] for c in report["cases"]] == ["quadruple-00",
                                                    "quadruple-01"]


def test_catalog_regen(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "catalog-regen", "--out", str(tmp_path))
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    for line in out.strip().splitlines():
        assert os.path.exists(line)


def test_catalog_regen_unwritable_out_exit_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "catalog-regen", "--out",
                             str(blocker / "fixtures"))
    assert code == 2
    assert "cannot write fixtures" in err


DEEP_JSON = "[" * 5000 + "]" * 5000
MALFORMED_FILES = {
    "not-utf8": b"\xff\xfe",
    "nested-5000": DEEP_JSON.encode(),
    "huge-exponent": json.dumps({
        "mode": "complex", "dim": 3, "k": 1,
        "spanning": [["z0^99999999999999999999", "z1", "0"]]}).encode(),
}


@pytest.mark.parametrize("command, content", [
    (command, content) for content in ("not-utf8", "nested-5000")
    for command in ("analyze", "dual", "twistor")]
    + [("analyze", "huge-exponent"), ("dual", "huge-exponent")])
def test_unreadable_input_file_exit_two(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(MALFORMED_FILES[content])
    argv = (["twistor", "--file", str(path)] if command == "twistor"
            else [command, str(path)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error (bad input):")


@pytest.mark.parametrize("change, message", [
    ({"k": -1}, "0 < k < dim"),
    ({"k": 3}, "0 < k < dim"),
    ({"spanning": [["0", "0", "0"]]}, "generic rank 0, expected k=1"),
    ({"mode": "real", "conjugation": [[0, 0, 0]] * 3}, "matrix is singular"),
])
def test_dual_invalid_structure_exit_two(tmp_path, capsys, change, message):
    # a dual of these would contradict itself (k = 4 on dim 3, or k = 2
    # spanned by the 3 x 3 identity), or has no conjugation (D = (C^T)^-1)
    data = {"mode": "complex", "dim": 3, "k": 1,
            "spanning": [["z0^2", "z0*z1", "z1^2"]]}
    data.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "dual", str(path))
    assert code == 2
    assert out == ""
    assert message in err

@pytest.mark.parametrize("change, message", [
    ({"spanning": [["z0^2", "z0*z1"]]}, "3 entries"),
    ({"conjugation": [[0, 0, 1], [0, -1, 0], [1, 0, 0.5]]}, "floating-point"),
    ({"k": "x"}, "must be integers"),
    ({"spanning": [[1, 2, 3]]}, "lists of forms"),
    ({"mode": 5}, "mode must be"),
    ({"mode": "Real"}, "mode must be"),
    ({"spanning": [["1/0*z0^2", "z0*z1", "z1^2"]]}, "zero denominator"),
    ({"conjugation": [[False, False, True], [False, True, False],
                      [True, False, False]]}, "boolean"),
    # "^" is the power, and "*" must join two factors: no "**"
    ({"spanning": [["z0**2", "z0*z1", "z1**2"]]}, "must join two factors"),
    # refused by its degree before any coefficient list is allocated
    ({"spanning": [["z0^99999999999", "z0*z1", "z1^2"]]}, "exceeds 10000"),
])
def test_malformed_structure_exit_two(tmp_path, capsys, change, message):
    with open(os.path.join(FIXTURES, "conic_r3.json")) as fh:
        data = json.load(fh)
    data.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert message in err


def test_integer_conjugation_entries_accepted(tmp_path, capsys):
    fixture = os.path.join(FIXTURES, "conic_r3.json")
    with open(fixture) as fh:
        data = json.load(fh)
    data["conjugation"] = [[int(x) for x in row]
                           for row in data["conjugation"]]
    path = tmp_path / "int_conj.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    _, expected, _ = run_cli(capsys, "analyze", fixture)
    assert out == expected


@pytest.mark.parametrize("vector", ["[1, 0]", "5", '["x"]', "[0.5]",
                                    '["1/0", "0", "0", "0", "0", "0", "0", "0"]',
                                    pytest.param(DEEP_JSON, id="nested-5000")])
def test_lie_jm_bad_nilpotent_exit_two(capsys, vector):
    code, out, err = run_cli(capsys, "lie-jm", "--algebra", "sl(3)",
                             "--nilpotent", vector)
    assert code == 2
    assert "nilpotent" in err


# diag(1, 1, -2) + E12 in sl(3): a nonzero semisimple part commuting with a
# nilpotent one, in the basis E12, E13, E21, E23, E31, E32, H1, H2
MIXED_SL3 = [1, 0, 0, 0, 0, 0, 1, 2]


def test_lie_jm_non_nilpotent_exit_two(capsys):
    code, out, err = run_cli(capsys, "lie-jm", "--algebra", "sl(3)",
                             "--nilpotent", json.dumps(MIXED_SL3))
    assert code == 2
    assert out == ""
    assert "element is not ad-nilpotent" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("algebra", ["so(5)", "sp(4)"])
@pytest.mark.parametrize("nilpotent", ["principal", "minimal"])
def test_lie_jm_named_nilpotent_off_sl_exit_two(capsys, algebra, nilpotent):
    code, out, err = run_cli(capsys, "lie-jm", "--algebra", algebra,
                             "--nilpotent", nilpotent)
    assert code == 2
    assert out == ""
    assert "named nilpotents are defined for sl(n)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("algebra", ["sl(x)", "so()", "sp(2.5)"])
def test_lie_jm_bad_algebra_size_exit_two(capsys, algebra):
    code, out, err = run_cli(capsys, "lie-jm", "--algebra", algebra,
                             "--nilpotent", "[1]")
    assert code == 2
    assert "algebra size" in err


_E = [1, 0, 0, 0, 0, 0, 0, 0]
_F = [0, 1, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("spec, message", [
    ({"algebra": "sl(3)", "sl2": {"E": _E, "F": _F}}, "missing H"),
    ({"algebra": "sl(3)", "sl2": {"E": ["abc"] * 8, "H": _E, "F": _F}},
     "bad quadruple file"),
    ([], "JSON object"),
    # badly shaped vectors and matrices, rejected where they are built
    ({"algebra": "sl(2)", "sl2": {"E": [1, 0, 0], "H": [0, 0],
                                  "F": [0, 1, 0]}}, "need 3 coordinates"),
    ({"algebra": "sl(2)", "sl2": {"E": [1, 0, 0, 1], "H": [0, 0, 1, 1],
                                  "F": [0, 1, 0, 1]}}, "need 3 coordinates"),
    ({"algebra": "sl(2)", "sl2": {"nilpotent": "principal"},
      "representation": {"matrices": [[[1, 0], [0]], [[0]], [[0]]]}},
     "must all be 2 x 2"),
    ({"algebra": "sl(2)", "representation": "adjoint",
      "sl2": {"nilpotent": "principal"}, "u_basis": [[1, 0]]},
     "u_basis vectors need 3 coordinates"),
    ({"algebra": {"dim": 3, "brackets": [[0, 1, [[5, "1"]]]]},
      "sl2": {"nilpotent": [0, 1, 0]}}, "not a basis index"),
    ({"algebra": "so(5)", "sl2": {"nilpotent": "principal"}},
     "named nilpotents are defined for sl(n)"),
    # sl(2) with H sent to the identity: tau holds, sigma is no representation
    (dict(QUADRUPLE, representation={"matrices": [
        [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]]}),
     "representation-identity"),
    # the Heisenberg algebra behind a nilpotent
    ({"algebra": {"dim": 3, "brackets": [[0, 1, [[2, "1"]]]]},
      "sl2": {"nilpotent": [0, 0, 1]}}, "not semisimple"),
    # a table breaking Jacobi: [[x0, x1], x2] + cyclic = x0
    ({"algebra": {"dim": 3, "brackets": [[0, 1, [[1, "1"]]],
                                         [1, 2, [[0, "1"]]]]},
      "sl2": {"nilpotent": ["1", "0", "0"]}}, "fails the Jacobi identity"),
    ({"algebra": "sl(3)", "sl2": {"nilpotent": MIXED_SL3}},
     "element is not ad-nilpotent"),
    # entries of the wrong JSON type are named with it
    ({"algebra": 5, "sl2": {"nilpotent": "principal"}},
     "'algebra' must be a built-in algebra name or a structure constant "
     "table, not the number 5"),
    ({"algebra": "sl(2)", "sl2": [1, 2]},
     "'sl2' must be an object with 'nilpotent' or E, H, F, not the array"),
    ({"algebra": "sl(2)", "sl2": {"nilpotent": "principal"},
      "u_basis": "foo"}, "'u_basis' must be a list of vectors, \"full\" or "
     "\"sl2-image\", not the string \"foo\""),
])
def test_malformed_quadruple_exit_two(tmp_path, capsys, spec, message):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "twistor", "--file", str(path))
    assert code == 2
    assert message in err
    assert "Traceback" not in err
