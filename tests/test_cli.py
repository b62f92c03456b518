import json

import pytest

from finsym.cli import main

CASE4 = {"D": {"family": "power_u", "n": 2},
         "h": {"family": "power_x", "q": 3, "eps": 1}}
CASE6 = {"D": {"family": "power_u", "n": -4 / 3},
         "h": {"family": "h1", "p": 1, "q": 1, "eps": 1}}
NONCLASSICAL = {"D": {"family": "power_u", "n": -1}, "h": {"expr": "x"},
                "params": {"C": 2}}


@pytest.fixture
def eq_file(tmp_path):
    def write(doc, name="eq.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def test_classify_json(eq_file, capsys):
    code = main(["classify", "--eq", eq_file(CASE4), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == 4
    assert doc["params"] == {"n": 2, "q": 3, "eps": 1}
    assert doc["basis"] == ["d_t", "-6*t*d_t+2*x*d_x+5*u*d_u"]
    assert doc["note"] is None


def test_symmetries_lists_basis_only(eq_file, capsys):
    code = main(["symmetries", "--eq", eq_file(CASE4), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["basis"]


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--eq", str(bad)]) == 2


def test_unknown_schema_key_is_usage_error(eq_file):
    doc = dict(CASE4)
    doc["extra"] = True
    assert main(["classify", "--eq", eq_file(doc)]) == 2


def test_malformed_parameter_is_usage_error(eq_file, capsys):
    for d, h in (({"family": "power_u", "n": "abc"}, CASE4["h"]),
                 ({"family": "power_u", "n": "nan"}, CASE4["h"]),
                 (CASE6["D"], {"family": "h1", "p": 0.5, "q": 1, "eps": 1})):
        assert main(["classify", "--eq", eq_file({"D": d, "h": h})]) == 2
        assert "must be" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["classify", "--eq", "/nonexistent.json"]) == 2


def test_verify_symmetry_pass_and_fail(eq_file, capsys):
    path = eq_file(CASE4)
    # leading-dash values need the --field=... form
    assert main(["verify-symmetry", "--eq", path,
                 "--field=-6*t;2*x;5*u", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and doc["max_residual"] <= 1e-9
    assert main(["verify-symmetry", "--eq", path,
                 "--field", "0;0;u", "--json"]) == 1


def test_transform_named_map(eq_file, capsys):
    src = {"D": {"family": "power_u", "n": -4 / 3},
           "h": {"family": "h1", "p": 0, "q": 2, "eps": 1}}
    assert main(["transform", "--eq", eq_file(src), "--map", "6p0-to-5",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target_case"] == 5 and doc["classified_case"] == 5


def test_transform_case8_out(eq_file, capsys):
    src = {"D": {"family": "reciprocal_shift"},
           "h": {"family": "constant", "c": 1}}
    assert main(["transform", "--eq", eq_file(src), "--map", "case8-out",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outside_class"] is True


def test_reduce_emits_reduction(eq_file, capsys):
    assert main(["reduce", "--eq", eq_file(CASE4), "--sub", "1",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "4.1" and doc["omega"] == "x"


def test_reduce_case_mismatch(eq_file):
    assert main(["reduce", "--eq", eq_file(CASE4), "--case", "5",
                 "--sub", "1"]) == 2


def test_exact_case6(eq_file, capsys):
    assert main(["exact", "--eq", eq_file(CASE6), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == 6 and doc["max_residual"] <= 1e-10


def test_exact_nonclassical(eq_file, capsys):
    assert main(["exact", "--eq", eq_file(NONCLASSICAL), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "nonclassical"
    assert doc["max_residual"] <= 1e-10


def test_reduce_and_exact_outside_the_catalog(eq_file, capsys):
    case1 = {"D": {"family": "power_u", "n": 2}, "h": {"expr": "x^2+x"}}
    assert main(["reduce", "--eq", eq_file(case1), "--sub", "1"]) == 2
    assert "no reduction catalog for case 1" in capsys.readouterr().err
    assert main(["exact", "--eq", eq_file(case1)]) == 2
    assert "no exact solution catalog for case 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,message", [
    ("exact", {**NONCLASSICAL, "params": {"C": "abc"}}, "params.C must be"),
    ("reduce", {**CASE4, "params": {"n": "abc"}}, "params.n must be"),
    ("reduce", {**CASE4, "params": {"eps": 7}}, "fixed by the classification"),
], ids=["exact-C-string", "reduce-n-string", "reduce-eps-fixed"])
def test_params_are_checked(eq_file, capsys, command, doc, message):
    extra = ["--sub", "1"] if command == "reduce" else []
    assert main([command, "--eq", eq_file(doc), *extra]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_exact_reality_violation_is_input_error(eq_file, capsys):
    bad = {"D": {"family": "power_u", "n": -4 / 3},
           "h": {"family": "h1", "p": -1, "q": 1, "eps": 1}}
    assert main(["exact", "--eq", eq_file(bad)]) == 2


def test_conserve(eq_file, capsys):
    doc_eq = {"D": {"family": "power_u", "n": 1},
              "h": {"family": "constant", "c": 1}}
    assert main(["conserve", "--eq", eq_file(doc_eq), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2
    assert all(law["divergence_ok"] for law in doc["laws"])


def test_simulate_csv(eq_file, capsys):
    doc_eq = {"D": {"family": "power_u", "n": 1},
              "h": {"family": "power_x", "q": 1, "eps": -1}}
    code = main(["simulate", "--eq", eq_file(doc_eq),
                 "--initial", "x^3/15", "--left", "1/15", "--right", "8/15",
                 "--xa", "1", "--xb", "2", "--m", "21", "--t-final", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,x,u"


SIMULATE_ARGS = ["--initial", "x^3/15", "--left", "1/15", "--right", "8/15",
                 "--xa", "1", "--xb", "2", "--m", "21", "--t-final", "0.01"]


@pytest.mark.parametrize("command,extra", [
    ("classify", []), ("symmetries", []),
    ("transform", ["--map", "10-to-11"]), ("reduce", ["--sub", "1"]),
    ("simulate", SIMULATE_ARGS), ("residual", ["--solution", "x^3/15"]),
])
def test_tol_only_where_a_tolerance_is_read(eq_file, capsys, command, extra):
    argv = [command, "--eq", eq_file(CASE4), *extra]
    assert main([*argv, "--tol", "1e-3"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_simulate_has_no_json_flag(eq_file, capsys):
    assert main(["simulate", "--eq", eq_file(CASE4), *SIMULATE_ARGS,
                 "--json"]) == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_residual_subcommand(eq_file, capsys):
    doc_eq = {"D": {"family": "power_u", "n": 1},
              "h": {"family": "power_x", "q": 1, "eps": -1}}
    assert main(["residual", "--eq", eq_file(doc_eq),
                 "--solution", "x^3/15", "--t-range", "0,1",
                 "--x-range", "1,2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_residual"] <= 1e-12


def test_byte_identical_output_for_same_seed(eq_file, capsys):
    path = eq_file(CASE6)
    main(["classify", "--eq", path, "--json", "--seed", "7"])
    first = capsys.readouterr().out
    main(["classify", "--eq", path, "--json", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_transform_output_round_trips_schema(eq_file, capsys):
    from finsym.model import equation_from_json
    src = {"D": {"family": "power_u", "n": 2},
           "h": {"family": "constant", "c": 1}}
    assert main(["transform", "--eq", eq_file(src), "--map", "10-to-11",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    image = equation_from_json(doc["transformed"])
    assert image is not None


def test_env_seed_override(eq_file, monkeypatch, capsys):
    monkeypatch.setenv("FINSYM_SEED", "123")
    assert main(["classify", "--eq", eq_file(CASE4), "--json"]) == 0
    monkeypatch.setenv("FINSYM_SEED", "not-an-int")
    assert main(["classify", "--eq", eq_file(CASE4), "--json"]) == 2


@pytest.mark.parametrize("label,params", [
    ("10-to-11", None), ("13a-to-13", {"alpha": 1}),
], ids=["10-to-11", "13a-to-13-alpha"])
def test_transform_refuses_a_map_from_another_case(eq_file, capsys, label,
                                                   params):
    doc = {"D": {"family": "exp_u"}, "h": {"family": "constant", "c": 0}}
    if params is not None:
        doc["params"] = params
    assert main(["transform", "--eq", eq_file(doc), "--map", label]) == 2
    captured = capsys.readouterr()
    case_from = label.split("-")[0].rstrip("a")
    assert f"takes case {case_from}" in captured.err
    assert "the equation is case 9" in captured.err
    assert captured.out == ""


CASE6_PM1 = {"D": {"family": "power_u", "n": -1.3333333333333333},
             "h": {"family": "h1", "p": -1, "q": 2, "eps": 1}}


@pytest.mark.parametrize("label,p", [("6p0-to-5", -1), ("6pm1-to-4", 0)])
def test_transform_refuses_a_map_for_another_p(eq_file, capsys, label, p):
    doc = {**CASE6_PM1, "h": {**CASE6_PM1["h"], "p": p}}
    assert main(["transform", "--eq", eq_file(doc), "--map", label]) == 2
    captured = capsys.readouterr()
    assert f"map {label!r} requires p = {-1 - p}, got p = {p}" in captured.err
    assert captured.out == ""


CONST_H = {"D": {"family": "power_u", "n": 1},
           "h": {"family": "constant", "c": 1}}


@pytest.mark.parametrize("command,doc,extra,named", [
    ("classify", CASE4, [], "['C', 'foo']"),
    ("reduce", CASE4, ["--sub", "1"], "['C', 'foo']"),
    ("conserve", CONST_H, [], "['C', 'foo']"),
    ("verify-symmetry", CASE4, ["--field", "1;0;0"], "['C', 'foo']"),
    ("exact", CASE4, [], "['C', 'foo']"),
    ("exact", NONCLASSICAL, [], "['foo']"),
], ids=["classify", "reduce", "conserve", "verify-symmetry", "exact",
        "exact-nonclassical"])
def test_unread_params_are_refused(eq_file, capsys, command, doc, extra,
                                   named):
    doc = {**doc, "params": {"C": 5, "foo": 1}}
    assert main([command, "--eq", eq_file(doc), *extra]) == 2
    captured = capsys.readouterr()
    assert f"params {named} are not read by {command}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field,message", [
    ("u;0;0", "tau may depend on t only"),
    ("0;u_x;0", "xi may depend on (t, x) only"),
])
def test_malformed_field_is_usage_error(eq_file, capsys, field, message):
    assert main(["verify-symmetry", "--eq", eq_file(CASE4),
                 "--field", field]) == 2
    assert f"error: {message}" in capsys.readouterr().err
