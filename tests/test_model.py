import importlib
import json

import numpy as np
import pytest

import finsym.model
from finsym.classify import classify, fit_d_shape, fit_h_shape
from finsym.conservation import AntiderivativeError, conservation_laws
from finsym.equivalence import apply_to_equation, make_group_element
from finsym.expressions import (
    ExpressionError, NoAdmissibleSampleError, differentiate, parse,
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
        eq._replace(D=PowerU(0))
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


def test_free_coefficients_are_scanned_once(monkeypatch):
    scans = []
    scan = finsym.model._admissible_range

    def counting(*args):
        scans.append(args[1])
        return scan(*args)

    monkeypatch.setattr(finsym.model, "_admissible_range", counting)
    # the fits' own name for it
    monkeypatch.setattr(importlib.import_module("finsym.classify"),
                        "_admissible_range", counting)
    eq = FinEquation(FreeD(parse("u^2+1")), ConstantH(1))
    assert scans == ["u"]
    for vf in classify(eq).basis:
        prolonged_residual(eq, vf)
    with pytest.raises(AntiderivativeError):
        conservation_laws(eq)
    eq = FinEquation(PowerU(2), FreeH(parse("x^2+x")))
    for vf in classify(eq).basis:
        prolonged_residual(eq, vf)
    assert scans == ["u", "x"]


def test_a_free_d_is_differentiated_in_u_once(monkeypatch):
    # validate's scans and the jet read one dD/du and one dh/dx, kept by
    # the equation
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
    assert [repr(e) for e, _ in calls] == [repr(d), repr(h), repr(jet.d_u)]
    assert [var for _, var in calls] == ["u", "x", "u"]
    assert jet.d_u is eq.d_u and jet.h_x is eq.h_x
    assert repr(jet.d_u) == repr(differentiate(d, "u"))


def _trimmed(a, b):
    """The cells of a run of grid points from a to b, trimmed by a sixth at
    each end."""
    a, b = a - 0.0125, b + 0.0125
    return pytest.approx((a + (b - a) / 6, b - (b - a) / 6), abs=1e-12)


#: free D (with h = x) and free h (with D = u^2) rows and validate's
#: verdict on each: the range it keeps, or the exception and its message;
#: each run is written as the grid points at its ends
SCAN_ROWS = [
    ("u", "u^2+1", (0.5, 3.0)),
    ("u", "1+1e-11*u", (0.5, 3.0)),
    ("u", "(u-1.76)^0.5", _trimmed(1.775, 4.0)),
    ("u", "(u-2.99)^0.5", _trimmed(3.0, 4.0)),
    ("u", "(0.52-u)^0.5", _trimmed(-4.0, 0.5)),
    ("u", "ln(-u)", _trimmed(-4.0, -0.025)),
    ("u", "ln(-u-5)", (SpecKindError,
                       "free D not evaluable on the sampling range")),
    ("u", "1+1e-12*u", (LinearCaseError,
                        "linear case excluded: D does not depend on u")),
    ("u", "2+1e-13*u^2", (LinearCaseError,
                          "linear case excluded: D does not depend on u")),
    ("x", "x^2+x", (0.5, 3.0)),
    ("x", "(x-2.96)^0.5", _trimmed(2.975, 4.0)),
    ("x", "(x-3.46)^1.55", _trimmed(3.475, 4.0)),
    ("x", "(x-3.97)^0.5", _trimmed(3.975, 4.0)),
    # finite at the one grid point 4: its cell, trimmed
    ("x", "(x-3.99)^0.5", _trimmed(4.0, 4.0)),
    ("x", "ln(1-x^2)", _trimmed(-0.975, 0.975)),
    # two runs of 80 points: the first is kept
    ("x", "ln(x^2-4.1)", _trimmed(-4.0, -2.025)),
    ("x", "(x-5)^0.5", (SpecKindError,
                        "free h not evaluable on the sampling range")),
]


@pytest.mark.parametrize("var,text,want", SCAN_ROWS)
def test_validate_keeps_the_scanned_range_or_refuses(var, text, want):
    d, h = ("u^2", text) if var == "x" else (text, "x")
    if isinstance(want, tuple) and isinstance(want[0], type):
        with pytest.raises(want[0]) as info:
            FinEquation(FreeD(parse(d)), FreeH(parse(h)))
        assert str(info.value) == want[1]
        return
    eq = FinEquation(FreeD(parse(d)), FreeH(parse(h)))
    assert eq.ranges[var] == want
    assert eq.ranges[{"u": "x", "x": "u"}[var]] == (0.5, 3.0)


def test_the_scan_reads_fixed_grids_and_draws_nothing(monkeypatch):
    seen = []

    def nowhere_finite(bindings):
        (points,) = bindings.values()
        seen.append(points)
        return np.full(points.size, np.nan), np.zeros(points.size)

    assert finsym.model._admissible_range(nowhere_finite, "x") == (
        None, None, None)
    # one grid, [-4, 4] in steps of 0.025, read by every scan
    assert [(p.size, p[0], p[-1]) for p in seen] == [(321, -4.0, 4.0)]
    assert np.diff(seen[0]) == pytest.approx(0.025, abs=1e-12)
    finsym.model._admissible_range(nowhere_finite, "u")
    assert seen[1] is seen[0]

    def no_rng(*args, **kwargs):
        raise AssertionError("the scan drew random points")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    eq = FinEquation(FreeD(parse("(u-2.97)^(-4/3)")),
                     FreeH(parse("(x-3.46)^1.55")))
    assert set(eq.ranges) == {"u", "x"}


def test_only_free_coefficients_holding_their_variable_get_a_range():
    assert FinEquation(PowerU(2), PowerX(2, 1)).ranges == {}
    assert FinEquation(PowerU(2), FreeH(parse("2"))).ranges == {}
    assert FinEquation(FreeD(parse("u^2")), ConstantH(0)).ranges == {
        "u": (0.5, 3.0)}


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


def test_equations_equal_samples_the_equations_ranges():
    # h is finite only above 3.46, outside the default x range (0.5, 3)
    eq = FinEquation(FreeD(parse("u^2")), FreeH(parse("(x-3.46)^1.55")))
    assert equations_equal(eq, eq)
    near = eq._replace(h=FreeH(parse("(x-3.46)^1.55*(1+1e-6*x)")))
    assert not equations_equal(eq, near)
    # a range given wins
    with pytest.raises(NoAdmissibleSampleError):
        equations_equal(eq, eq, ranges={"x": (0.5, 3.0)})


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
