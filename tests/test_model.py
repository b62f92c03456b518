import dataclasses
import json

import pytest

import finsym.model
from finsym.classify import classify
from finsym.conservation import AntiderivativeError, conservation_laws
from finsym.equivalence import apply_to_equation, make_group_element
from finsym.expressions import parse, sample_finite
from finsym.model import (
    ConstantH, ExpU, ExpX, FinEquation, FreeD, FreeH, H1, InverseSquareX,
    LinearCaseError, PowerU, PowerX, ReciprocalShift, SchemaError,
    ShiftedPowerU, Solution, SpecKindError, VectorField, equation_from_json,
    equation_to_json, equations_equal, validate,
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


def test_free_d_is_probed_once(monkeypatch):
    probes = []

    def counting(*args, **kwargs):
        probes.append(args)
        return sample_finite(*args, **kwargs)

    monkeypatch.setattr(finsym.model, "sample_finite", counting)
    eq = FinEquation(FreeD(parse("u^2+1")), ConstantH(1))
    assert len(probes) == 1
    for vf in classify(eq).basis:
        prolonged_residual(eq, vf)
    with pytest.raises(AntiderivativeError):
        conservation_laws(eq)
    assert len(probes) == 1


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


def test_vector_field_prints_a_minus_one_coefficient_as_a_sign():
    assert VectorField.parse_triple("-1;0;-u").to_string() == "-d_t-u*d_u"


def test_solution_bind():
    s = Solution(parse("C*exp(t*x)"), ("C",))
    bound = s.bind(C=2)
    assert bound.parameters == ()
    assert "C" not in bound.expr.free_symbols()
    with pytest.raises(Exception):
        s.bind(K=1)


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
