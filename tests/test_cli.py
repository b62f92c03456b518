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


def test_exact_free_form_pm1_source_prints_the_tagged_bytes(eq_file, capsys):
    # a free-form h that classifies as case 6 with p = -1 is sampled on the
    # solution's domain x > 1, as the tagged one is
    tagged = {"D": {"family": "power_u", "n": -4 / 3},
              "h": {"family": "h1", "p": -1, "q": 5, "eps": 1}}
    free = {"D": {"expr": "u^(-4/3)"}, "h": {"expr": "abs((x-1)/(x+1))^2.5"}}
    outputs = []
    for doc in (tagged, free):
        assert main(["exact", "--eq", eq_file(doc), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


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


@pytest.mark.parametrize("command,extra", [
    ("verify-symmetry", ["--field=-6*t;2*x;5*u"]), ("exact", []),
    ("conserve", []),
])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3", "abc"])
def test_tol_must_be_finite_and_nonnegative(eq_file, capsys, command, extra,
                                            tol):
    doc = CASE6 if command == "exact" else CASE4
    assert main([command, "--eq", eq_file(doc), *extra, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "error: argument --tol: expected a finite number >= 0" in (
        captured.err)
    assert captured.out == ""


def test_exact_compares_with_tol_as_given(eq_file, capsys):
    # the case-6 residual at seed 42 is 4.347571131218279e-15
    argv = ["exact", "--eq", eq_file(CASE6), "--json", "--seed", "42"]
    assert main([*argv, "--tol", "1e-15"]) == 1
    assert main([*argv, "--tol", "1e-14"]) == 0


@pytest.mark.parametrize("given", [["--left", "1"], ["--right", "1"],
                                   ["--left", "1", "--right", "1"]])
def test_noflux_excludes_dirichlet_values(eq_file, capsys, given):
    argv = ["simulate", "--eq", eq_file(CASE4), "--initial", "x", "--noflux",
            *given, "--xa", "1", "--xb", "2", "--m", "9", "--t-final", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: --noflux excludes --left and --right" in captured.err
    assert captured.out == ""


def test_simulate_needs_both_dirichlet_values(eq_file, capsys):
    argv = ["simulate", "--eq", eq_file(CASE4), "--initial", "x",
            "--left", "1", "--xa", "1", "--xb", "2", "--t-final", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: simulate requires --left and --right" in captured.err
    assert captured.out == ""


def test_numeric_failure_exits_1(eq_file, capsys):
    # --dt 1 to t = 0.01 is one step of dt = 0.01, far above the explicit
    # stability bound dx^2 / (2 max|D|)
    assert main(["simulate", "--eq", eq_file(CASE4), *SIMULATE_ARGS,
                 "--dt", "1"]) == 1
    captured = capsys.readouterr()
    assert "numeric failure: explicit step dt=0.01 exceeds" in captured.err
    assert "at t=0;" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("command,extra,code,message", [
    ("residual", ["--t-range", "0,abc"], 2, "error: expected finite 'lo,hi'"),
    ("residual", ["--t-range", "1,0"], 2, "error: expected finite 'lo,hi'"),
    ("residual", ["--x-range", "nan,1"], 2, "error: expected finite 'lo,hi'"),
    ("residual", ["--samples", "-3"], 2, "error: need at least one sample"),
    ("residual", ["--samples", "0"], 2, "error: need at least one sample"),
    pytest.param("simulate", [*SIMULATE_ARGS, "--dt", "nan"], 2,
                 "error: dt must be positive and finite",
                 id="simulate-dt-nan"),
    pytest.param("simulate", [*SIMULATE_ARGS, "--t-final", "inf"], 2,
                 "error: time horizon must be finite and nonnegative",
                 id="simulate-t-final-inf"),
    pytest.param("simulate", [*SIMULATE_ARGS, "--m", "5"], 2,
                 "error: grid requires at least 8 nodes", id="simulate-m-5"),
    pytest.param("simulate", [*SIMULATE_ARGS, "--xb", "1"], 2,
                 "error: grid requires finite a < b", id="simulate-xb-xa"),
])
def test_malformed_numbers_are_refused(eq_file, capsys, command, extra, code,
                                       message):
    if command == "residual":
        extra = ["--solution", "x^3/15", *extra]
    assert main([command, "--eq", eq_file(CASE4), *extra]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


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
