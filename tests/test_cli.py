import io
import json
import os
import sys

import pytest

from qlike import catalog
from qlike.bundles import SplittingType
from qlike.cli import main


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


def test_analyze_invalid_structure_exit_two(tmp_path, capsys):
    constant = {"mode": "complex", "dim": 3, "k": 1,
                "spanning": [["1", "0", "0"]]}
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(constant))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "invalid"


@pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
def test_bad_max_degree_exit_two(capsys, monkeypatch, value):
    monkeypatch.setenv("QLIKE_MAX_DEGREE", value)
    path = os.path.join(FIXTURES, "conic_r3.json")
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert "QLIKE_MAX_DEGREE" in err


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


def test_catalog_regen(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "catalog-regen", "--out", str(tmp_path))
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    for line in out.strip().splitlines():
        assert os.path.exists(line)


@pytest.mark.parametrize("change, message", [
    ({"k": -1}, "0 < k < dim"),
    ({"k": 3}, "0 < k < dim"),
    ({"spanning": [["0", "0", "0"]]}, "generic rank 0, expected k=1"),
])
def test_dual_invalid_structure_exit_two(tmp_path, capsys, change, message):
    # a dual of these would contradict itself (k = 4 on dim 3, or k = 2
    # spanned by the 3 x 3 identity)
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
                                    '["1/0", "0", "0", "0", "0", "0", "0", "0"]'])
def test_lie_jm_bad_nilpotent_exit_two(capsys, vector):
    code, out, err = run_cli(capsys, "lie-jm", "--algebra", "sl(3)",
                             "--nilpotent", vector)
    assert code == 2
    assert "nilpotent" in err


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
])
def test_malformed_quadruple_exit_two(tmp_path, capsys, spec, message):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "twistor", "--file", str(path))
    assert code == 2
    assert message in err
