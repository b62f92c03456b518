import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

import finsym.model
from finsym.classify import classify, fit_d_shape, fit_h_shape
from finsym.conservation import AntiderivativeError, conservation_laws
from finsym.equivalence import apply_to_equation, make_group_element
from finsym.expressions import (
    ExpressionError, compile_expressions, differentiate, parse,
    sample_bindings, sample_finite,
)
from finsym.model import (
    ConstantH, ExpU, ExpX, FinEquation, FreeD, FreeH, H1, InverseSquareX,
    LinearCaseError, ModelError, PowerU, PowerX, ReciprocalShift, SchemaError,
    ShiftedPowerU, Solution, SpecKindError, VectorField, equation_from_json,
    equation_to_json, equations_equal, h1_expression, load_equation_file,
    shapes_match, spec_to_json, validate,
)
from finsym.symmetry import prolonged_residual


def test_validate_accepts_power_constant():
    eq = FinEquation(PowerU(2), ConstantH(1))
    assert validate(eq) is eq


def test_validate_rejects_constant_free_d():
    with pytest.raises(LinearCaseError):
        validate(FinEquation(FreeD(parse("5")), ConstantH(1)))


def test_validate_accepts_free_d_with_inverse_square():
    eq = FinEquation(FreeD(parse("u^2+1")), InverseSquareX())
    assert validate(eq) is eq


def test_validate_idempotent():
    eq = FinEquation(PowerU(-4 / 3), H1(1, 2, 1))
    assert validate(validate(eq)) is eq


def test_validate_parameter_constraints():
    with pytest.raises(LinearCaseError):
        validate(FinEquation(PowerU(0), ConstantH(1)))
    with pytest.raises(SpecKindError):
        validate(FinEquation(ShiftedPowerU(2, 0.5), ConstantH(1)))
    with pytest.raises(SpecKindError):
        validate(FinEquation(PowerU(2), H1(1, 0, 1)))
    with pytest.raises(SpecKindError):
        validate(FinEquation(PowerU(2), H1(2, 1, 1)))
    with pytest.raises(SpecKindError, match="eps = \\+-1"):
        validate(FinEquation(PowerU(2), H1(1, 1, 2)))
    with pytest.raises(ModelError, match="p must be in"):
        h1_expression(2, 1, 1)
    with pytest.raises(SpecKindError):
        validate(FinEquation(PowerU(2), PowerX(2, 3)))


def test_construction_validates():
    with pytest.raises(LinearCaseError):
        FinEquation(PowerU(0), ConstantH(1))
    with pytest.raises(SpecKindError):
        FinEquation(PowerU(2), PowerX(2, 3))
    with pytest.raises(SpecKindError):
        FinEquation(PowerX(1, 1), ConstantH(1))
    eq = FinEquation(PowerU(2), ConstantH(1))
    with pytest.raises(LinearCaseError):
        dataclasses.replace(eq, D=PowerU(0))
    # a spec in the other coefficient's slot
    with pytest.raises(SpecKindError):
        FinEquation(PowerU(2), PowerU(2))
    with pytest.raises(SpecKindError):
        FinEquation(FreeH(parse("x")), ConstantH(1))
    with pytest.raises(SpecKindError):
        FinEquation(PowerU(2), FreeD(parse("u^2")))
    # the slots are checked before the family rules
    with pytest.raises(SpecKindError):
        FinEquation(PowerU(0), PowerU(2))


def test_free_d_is_probed_once(monkeypatch):
    probes = []
    keep_finite = finsym.model._keep_finite

    def counting(*args, **kwargs):
        probes.append(args)
        return keep_finite(*args, **kwargs)

    monkeypatch.setattr(finsym.model, "_keep_finite", counting)
    eq = FinEquation(FreeD(parse("u^2+1")), ConstantH(1))
    assert len(probes) == 1
    for vf in classify(eq).basis:
        prolonged_residual(eq, vf)
    with pytest.raises(AntiderivativeError):
        conservation_laws(eq)
    assert len(probes) == 1


def test_a_free_d_is_differentiated_in_u_once(monkeypatch):
    # validate's probe and the jet read one dD/du, kept by the equation
    calls = []
    differentiate = finsym.model.differentiate

    def counting(*args):
        calls.append(args)
        return differentiate(*args)

    monkeypatch.setattr(finsym.model, "differentiate", counting)
    d, h = parse("1.3*(u+0.7)^(-4/3)+u^2"), parse("x^2+x")
    eq = FinEquation(FreeD(d), FreeH(h))
    jet = eq.jet
    validate(eq)
    assert [repr(e) for e, _ in calls] == [repr(d), repr(jet.d_u), repr(h)]
    assert [var for _, var in calls] == ["u", "u", "x"]
    assert jet.d_u is eq._derive_d_u(d)
    assert repr(jet.d_u) == repr(differentiate(d, "u"))


def test_free_d_probe_draws_rounds_until_it_finds_points():
    # finite only for u > 2.9, 4% of the u range: the first round of 20
    # points at seed 0 has none, so the probe draws more
    d = parse("(u-2.9)^0.5")
    assert FinEquation(FreeD(d), ConstantH(1)).D == FreeD(d)
    # finite nowhere on the range: ten rounds, then a refusal
    with pytest.raises(SpecKindError, match="not evaluable"):
        FinEquation(FreeD(parse("ln(-u)")), ConstantH(1))


def _probe_rounds(var):
    """The bindings of the ten rounds validate's probe reads for ``var``."""
    seen = []

    def nowhere_finite(bindings):
        seen.append(bindings)
        return np.full(20, np.nan), np.full(20, np.nan)

    kept, _ = finsym.model._probe(nowhere_finite, var)
    assert kept.size == 0
    return seen


@pytest.mark.parametrize("var", ["u", "x"])
def test_the_probe_rounds_are_what_seed_0_draws(var):
    rng = np.random.default_rng(0)
    rounds = _probe_rounds(var)
    assert len(rounds) == 10
    for bindings in rounds:
        (want,) = sample_bindings((var,), rng, 20).values()
        assert list(bindings) == [var]
        assert ([float.hex(v) for v in bindings[var]]
                == [float.hex(v) for v in want])
        assert not bindings[var].flags.writeable


def test_threads_drawing_the_probe_rounds_keep_their_order(monkeypatch):
    # fresh rounds, drawn at once by more threads than cores with frequent
    # switches, many times over
    rng = np.random.default_rng(0)
    want = [sample_bindings(("u",), rng, 20)["u"].tobytes() for _ in range(10)]
    errors = []

    def probe(start):
        try:
            start.wait(timeout=60)
            _probe_rounds("u")
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            monkeypatch.setattr(finsym.model, "_PROBE_ROUNDS", [])
            monkeypatch.setattr(finsym.model, "_PROBE_DRAWS",
                                finsym.model._draw_probe_rounds())
            start = threading.Barrier(8)
            threads = [threading.Thread(target=probe, args=(start,))
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert [points.tobytes() for points
                    in finsym.model._PROBE_ROUNDS] == want
    finally:
        sys.setswitchinterval(interval)


#: free D and h specs whose probe decides near its edges: finite only near
#: one end of the range, nearly linear, finite nowhere
PROBE_ROWS = [
    ("(u-1.75)^0.5", "x"), ("(u-2.9)^0.5", "x"), ("(u-2.99)^0.5", "x"),
    ("(0.52-u)^0.5", "x"),
    ("ln(u-2.97)", "x"), ("(u-3.5)^0.5", "x"), ("ln(-u)", "x"),
    ("1+1e-12*u", "x"), ("1+1e-11*u", "x"), ("2+1e-13*u^2", "x"),
    ("u^2", "(x-2.95)^0.5"), ("u^2", "(0.51-x)^0.5"), ("u^2", "ln(x-2.99)"),
    ("u^2", "(x-3.5)^0.5"), ("u^2", "(x-3.46)^1.55"),
    ("u^(-4/3)", "(x-3.46)^1.55"), ("ln(-u)", "(x-3.5)^0.5"),
]


def _sample_finite_probes(d, h):
    """validate's probes of a free D and a free h over ``sample_finite``
    at seed 0, with validate's exceptions and messages."""
    dv, v = sample_finite(compile_expressions(differentiate(d, "u"), d),
                          ("u",), 0, 20)
    if dv.size == 0:
        raise SpecKindError("free D not evaluable on the sampling range")
    if float(abs(dv).max()) <= 1e-12 * (1.0 + float(abs(v).max())):
        raise LinearCaseError("linear case excluded: D does not depend on u")
    if sample_finite(compile_expressions(h, h), ("x",), 0, 20)[0].size == 0:
        raise SpecKindError("free h not evaluable on the sampling range")


def _verdict(build):
    try:
        build()
    except ModelError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("d,h", PROBE_ROWS)
def test_validate_decides_as_sample_finite_does(d, h):
    d, h = parse(d), parse(h)
    want = _verdict(lambda: _sample_finite_probes(d, h))
    assert _verdict(lambda: FinEquation(FreeD(d), FreeH(h))) == want
    # both probes see the same points: the kept arrays are bit-identical
    for expr, var in ((d, "u"), (h, "x")):
        fn = compile_expressions(differentiate(expr, var), expr)
        got = finsym.model._probe(fn, var)
        ref = sample_finite(fn, (var,), 0, 20)
        for a, b in zip(got, ref):
            assert [float.hex(v) for v in a] == [float.hex(v) for v in b]


def test_the_probe_rows_reach_every_verdict():
    verdicts = {_verdict(lambda: FinEquation(FreeD(parse(d)), FreeH(parse(h))))
                for d, h in PROBE_ROWS}
    assert {v and v[1] for v in verdicts} == {
        None, "free D not evaluable on the sampling range",
        "linear case excluded: D does not depend on u",
        "free h not evaluable on the sampling range"}


def test_validate_checks_free_symbols():
    with pytest.raises(SpecKindError):
        validate(FinEquation(FreeD(parse("u+x")), ConstantH(1)))
    with pytest.raises(SpecKindError):
        validate(FinEquation(PowerU(1), FreeH(parse("u"))))


TABLE_INSTANCES = [
    FinEquation(FreeD(parse("u^2+1")), FreeH(parse("x^2+x"))),
    FinEquation(FreeD(parse("exp(u)+u")), ConstantH(1)),
    FinEquation(FreeD(parse("u^3+u")), InverseSquareX()),
    FinEquation(PowerU(2), PowerX(3, 1)),
    FinEquation(PowerU(1), ExpX(-1)),
    FinEquation(PowerU(-4 / 3), H1(1, 1, 1)),
    FinEquation(FreeD(parse("u+u^2")), ConstantH(0)),
    FinEquation(ReciprocalShift(), ConstantH(1)),
    FinEquation(ExpU(), ConstantH(0)),
    FinEquation(PowerU(3), ConstantH(-1)),
    FinEquation(ShiftedPowerU(2, 1), ConstantH(0)),
    FinEquation(PowerU(-4 / 3), ConstantH(1)),
    FinEquation(ShiftedPowerU(-4 / 3, 1), ConstantH(0)),
]


@pytest.mark.parametrize("eq", TABLE_INSTANCES, ids=lambda e: str(e)[:40])
def test_table_constructor_instances_validate(eq):
    assert validate(eq) is eq


def test_json_round_trip():
    eq = FinEquation(PowerU(-4 / 3), H1(1, 2, 1))
    doc = equation_to_json(eq)
    assert doc == {"D": {"family": "power_u", "n": -4 / 3},
                   "h": {"family": "h1", "p": 1, "q": 2, "eps": 1}}
    assert equation_from_json(json.loads(json.dumps(doc))) == eq

    # every tagged family: exact document, key order, and back
    d_specs = [
        (PowerU(2.5), '{"family": "power_u", "n": 2.5}'),
        (ShiftedPowerU(-1, 1),
         '{"family": "shifted_power_u", "n": -1, "alpha": 1}'),
        (ExpU(), '{"family": "exp_u"}'),
        (ReciprocalShift(), '{"family": "reciprocal_shift"}'),
    ]
    h_specs = [
        (PowerX(0.5, -1), '{"family": "power_x", "q": 0.5, "eps": -1}'),
        (ExpX(1), '{"family": "exp_x", "eps": 1}'),
        (InverseSquareX(), '{"family": "inverse_square_x"}'),
        (ConstantH(-2), '{"family": "constant", "c": -2}'),
        (H1(-1, 3, -1), '{"family": "h1", "p": -1, "q": 3, "eps": -1}'),
    ]
    pairs = ([(d, h_specs[0]) for d in d_specs]
             + [(d_specs[0], h) for h in h_specs])
    for (d, d_text), (h, h_text) in pairs:
        eq = FinEquation(d, h)
        doc = equation_to_json(eq)
        assert doc == {"D": json.loads(d_text), "h": json.loads(h_text)}
        assert json.dumps(doc) == f'{{"D": {d_text}, "h": {h_text}}}'
        assert equation_from_json(json.loads(json.dumps(doc))) == eq

    # a family of one kind is not accepted for the other
    with pytest.raises(SchemaError):
        equation_from_json({"D": {"family": "power_u", "n": 2},
                            "h": {"family": "power_u", "n": 2}})
    with pytest.raises(SchemaError):
        equation_from_json({"D": {"family": "constant", "c": 1},
                            "h": {"family": "constant", "c": 1}})


def test_json_free_spec_round_trip():
    eq = FinEquation(FreeD(parse("u^2+1")), FreeH(parse("x^2+x")))
    doc = equation_to_json(eq)
    assert doc["D"] == {"expr": "u^2+1"}
    back = equation_from_json(doc)
    assert equations_equal(eq, back, tol=1e-12)


def test_json_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        equation_from_json({"D": {"family": "power_u", "n": 2},
                            "h": {"family": "constant", "c": 1},
                            "bogus": 1})
    with pytest.raises(SchemaError):
        equation_from_json({"D": {"family": "power_u", "n": 2, "junk": 0},
                            "h": {"family": "constant", "c": 1}})
    with pytest.raises(SchemaError):
        equation_from_json({"D": {"family": "power_u", "n": 2}})
    # parameters must be finite JSON numbers, whole for integer fields
    h = {"family": "constant", "c": 1}
    for bad in ({"family": "power_u", "n": "abc"},
                {"family": "power_u", "n": "nan"},
                {"family": "power_u", "n": "2"},
                {"family": "power_u", "n": True},
                {"family": "power_u", "n": float("nan")},
                {"family": "power_u", "n": float("inf")},
                {"family": "power_u", "n": 10 ** 400},
                {"family": "power_u", "n": None},
                {"family": ["power_u"], "n": 2},
                {"expr": 2}):
        with pytest.raises(SchemaError):
            equation_from_json({"D": bad, "h": h})
    for bad in ({"family": "h1", "p": 0.5, "q": 1, "eps": 1},
                {"family": "power_x", "q": 1, "eps": 1.7},
                {"family": "exp_x", "eps": False},
                {"family": "constant", "c": [1]}):
        with pytest.raises(SchemaError):
            equation_from_json({"D": {"family": "power_u", "n": 2}, "h": bad})


def test_vector_field_triple_parsing():
    vf = VectorField.parse_triple("-6*t; 2*x; 5*u")
    assert vf.to_string() == "-6*t*d_t+2*x*d_x+5*u*d_u"
    assert VectorField.parse_triple("1;0;0").to_string() == "d_t"
    with pytest.raises(ModelError, match="three ';'-separated"):
        VectorField.parse_triple("1;0")


def test_json_refuses_what_is_not_an_object(tmp_path):
    h = {"family": "constant", "c": 1}
    with pytest.raises(SchemaError, match="not a coefficient spec"):
        spec_to_json(parse("u^2"))
    with pytest.raises(SchemaError, match="spec must be an object"):
        equation_from_json({"D": "u^2", "h": h})
    with pytest.raises(SchemaError, match="document must be an object"):
        equation_from_json(["D", "h"])
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"D": {"family": "power_u", "n": 2}, "h": h,
                                "params": [1]}))
    with pytest.raises(SchemaError, match="'params' must be an object"):
        load_equation_file(str(path))


def test_vector_field_prints_a_minus_one_coefficient_as_a_sign():
    assert VectorField.parse_triple("-1;0;-u").to_string() == "-d_t-u*d_u"


def test_solution_bind():
    s = Solution(parse("C*exp(t*x)"), ("C",))
    bound = s.bind(C=2)
    assert bound.parameters == ()
    assert "C" not in bound.expr.free_symbols()
    with pytest.raises(Exception):
        s.bind(K=1)


def test_spec_equality_and_hashing():
    assert PowerU(2) == PowerU(2.0)
    assert hash(PowerU(2)) == hash(PowerU(2.0))
    # families keep their tags; equations_equal compares shapes
    assert PowerU(2) != ShiftedPowerU(2, 0)
    assert ReciprocalShift() != ShiftedPowerU(-1, 1)
    assert equations_equal(FinEquation(ReciprocalShift(), ConstantH(1)),
                           FinEquation(ShiftedPowerU(-1, 1), ConstantH(1)))
    assert FreeD(parse("u")) != FreeH(parse("u"))


TAGGED_SPECS = [
    PowerU(2), PowerU(-4 / 3), ShiftedPowerU(3, 0), ShiftedPowerU(-1.5, 1),
    ExpU(), ReciprocalShift(), PowerX(3, 1), PowerX(0.5, -1), PowerX(0, -1),
    ExpX(1), ExpX(-1), InverseSquareX(), ConstantH(2.5), ConstantH(0),
    H1(-1, 3, 1), H1(0, 2, -1), H1(1, 1.5, 1), H1(1, -2, -1),
]


@pytest.mark.parametrize(
    "spec", TAGGED_SPECS,
    ids=lambda s: "-".join([s.family, *map(str, s.params)]))
def test_family_shape_matches_the_fit_of_its_expression(spec):
    fit = fit_d_shape if spec.var == "u" else fit_h_shape
    assert shapes_match(spec.shape(), fit(spec.expression()), 1e-9)


def test_equations_equal_across_representations():
    a = FinEquation(PowerU(2), InverseSquareX())
    b = FinEquation(ShiftedPowerU(2, 0), PowerX(-2, 1))
    assert equations_equal(a, b, tol=1e-12)
    c = FinEquation(ReciprocalShift(), ConstantH(0))
    d = FinEquation(ShiftedPowerU(-1, 1), ConstantH(0))
    assert equations_equal(c, d, tol=1e-12)
    assert not equations_equal(a, c, tol=1e-9)
    # x^0 is the constant profile of the same sign
    for eps in (1, -1):
        assert equations_equal(FinEquation(PowerU(2), PowerX(0, eps)),
                               FinEquation(PowerU(2), ConstantH(eps)),
                               tol=1e-12)
        assert not equations_equal(FinEquation(PowerU(2), PowerX(0, eps)),
                                   FinEquation(PowerU(2), ConstantH(-eps)))
    # a Gsim round trip retags x^0 as a constant
    eq = FinEquation(PowerU(2), PowerX(0, 1))
    g = make_group_element("Gsim", (2, 0.5, 3, 1, 1.5))
    back = apply_to_equation(g.inverse(), apply_to_equation(g, eq))
    assert back.h == ConstantH(1.0)
    assert equations_equal(eq, back)


def test_equations_equal_refuses_a_reversed_range():
    a = FinEquation(FreeD(parse("u^2")), ConstantH(1))
    b = FinEquation(PowerU(2), ConstantH(1))
    assert equations_equal(a, b, ranges={"u": (1, 3)})
    with pytest.raises(ExpressionError,
                       match=r"sampling range of u .* got \(3, 1\)"):
        equations_equal(a, b, ranges={"u": (3, 1)})
