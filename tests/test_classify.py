import json
import pathlib
import warnings

import numpy as np
import pytest

from finsym.classify import classify, fit_d_shape, fit_h_shape
from finsym.expressions import add, differentiate, equivalent, mul, parse
from finsym.model import (
    ConstantH, ExpU, ExpX, FinEquation, FreeD, FreeH, H1, InverseSquareX,
    PowerU, PowerX, ReciprocalShift, ShiftedPowerU, equation_from_json,
    h1_expression,
)
from finsym.symmetry import symmetry_residual


def test_free_d_with_unit_constant_h_is_case2():
    r = classify(FinEquation(FreeD(parse("u^2+1")), ConstantH(1)))
    assert r.case == 2
    assert [vf.to_string() for vf in r.basis] == ["d_t", "d_x"]


def test_case4_generator_instantiation():
    r = classify(FinEquation(PowerU(2), PowerX(3, 1)))
    assert r.case == 4
    assert r.params == {"n": 2, "q": 3, "eps": 1}
    assert r.basis[1].to_string() == "-6*t*d_t+2*x*d_x+5*u*d_u"


def test_case6_generator_instantiation():
    r = classify(FinEquation(PowerU(-4 / 3), H1(1, 2, 1)))
    assert r.case == 6
    assert r.params == {"p": 1, "q": 2, "eps": 1}
    vf = r.basis[1]
    assert equivalent(vf.tau, parse("-8*t"), seed=1)
    assert equivalent(vf.xi, parse("4*(x^2+1)"), seed=2)
    assert equivalent(vf.eta, parse("-3*(4*x+2)*u"), seed=3)


def test_case9_has_four_generators():
    r = classify(FinEquation(ExpU(), ConstantH(0)))
    assert r.case == 9 and len(r.basis) == 4


EXPECTED_DIM = {1: 1, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3,
                9: 4, 10: 4, 11: 4, 12: 5, 13: 5}

ROWS = {
    1: FinEquation(FreeD(parse("u^2+1")), FreeH(parse("x^2+x"))),
    2: FinEquation(FreeD(parse("exp(u)+u")), ConstantH(1)),
    3: FinEquation(FreeD(parse("u^3+u")), InverseSquareX()),
    4: FinEquation(PowerU(2), PowerX(3, 1)),
    5: FinEquation(PowerU(1), ExpX(-1)),
    6: FinEquation(PowerU(-4 / 3), H1(0, 2, 1)),
    7: FinEquation(FreeD(parse("u+u^2")), ConstantH(0)),
    8: FinEquation(ReciprocalShift(), ConstantH(1)),
    9: FinEquation(ExpU(), ConstantH(0)),
    10: FinEquation(PowerU(3), ConstantH(-1)),
    11: FinEquation(ShiftedPowerU(2, 1), ConstantH(0)),
    12: FinEquation(PowerU(-4 / 3), ConstantH(1)),
    13: FinEquation(ShiftedPowerU(-4 / 3, 1), ConstantH(0)),
}


@pytest.mark.parametrize("case", sorted(ROWS))
def test_row_dimension_and_validity(case):
    eq = ROWS[case]
    r = classify(eq)
    assert r.case == case
    assert len(r.basis) == EXPECTED_DIM[case]
    assert r.basis[0].to_string() == "d_t"
    for vf in r.basis:
        assert symmetry_residual(eq, vf) <= 1e-9


def test_h1_closed_forms():
    assert equivalent(h1_expression(0, 1, 1), parse("exp(-1/x)"), seed=4)
    assert equivalent(h1_expression(1, 2, -1), parse("-exp(2*arctan(x))"),
                      seed=5)
    assert equivalent(h1_expression(-1, 4, 1),
                      parse("abs((x-1)/(x+1))^2"), seed=6,
                      ranges={"x": (1.2, 3.0)})


@pytest.mark.parametrize("p", [-1, 0, 1])
@pytest.mark.parametrize("q", [1.0, -2.5])
def test_h1_satisfies_defining_ode(p, q):
    h = h1_expression(p, q, 1)
    lhs = mul(add(parse("x^2"), p), differentiate(h, "x"))
    rhs = mul(q, h)
    ranges = {"x": (1.2, 3.0)} if p == -1 else None
    assert equivalent(lhs, rhs, seed=7, tol=1e-9, ranges=ranges)


def test_kernel_for_random_free_equations():
    rng = np.random.default_rng(99)
    for _ in range(20):
        a, b, c = rng.uniform(0.5, 2.0, size=3)
        d, e = rng.uniform(0.5, 2.0, size=2)
        eq = FinEquation(FreeD(parse(f"{a}+{b}*u+{c}*u^2")),
                         FreeH(parse(f"{d}*x+{e}*x^2")))
        r = classify(eq)
        assert r.basis[0].to_string() == "d_t"


def test_constant_h_normalization_note():
    r = classify(FinEquation(FreeD(parse("u^3+u")), ConstantH(2)))
    assert r.case == 2
    assert r.note is not None and "rescaled" in r.note
    r10 = classify(FinEquation(PowerU(2), ConstantH(-3)))
    assert r10.case == 10
    assert r10.params["eps"] == -1
    assert "rescaled" in r10.note
    for vf in r10.basis:
        assert symmetry_residual(
            FinEquation(PowerU(2), ConstantH(-3)), vf) <= 1e-9


def test_specificity_is_monotone_under_h_to_zero():
    pairs = [
        (FinEquation(FreeD(parse("u^2+u")), ConstantH(1)),
         FinEquation(FreeD(parse("u^2+u")), ConstantH(0))),
        (FinEquation(PowerU(2), ConstantH(1)),
         FinEquation(PowerU(2), ConstantH(0))),
        (FinEquation(PowerU(-4 / 3), ConstantH(-1)),
         FinEquation(PowerU(-4 / 3), ConstantH(0))),
        (FinEquation(ExpU(), ConstantH(1)),
         FinEquation(ExpU(), ConstantH(0))),
    ]
    for with_c, with_zero in pairs:
        assert len(classify(with_zero).basis) >= len(classify(with_c).basis)


def test_free_h_fit_to_inverse_square():
    eq = FinEquation(FreeD(parse("u^3+u")), FreeH(parse("x^-2")))
    assert classify(eq).case == 3


def test_free_d_fit_to_reciprocal_shift_matches_case8_first():
    eq = FinEquation(FreeD(parse("1/(u+1)")), ConstantH(1))
    assert classify(eq).case == 8


def test_case8_accepts_scaled_shift_and_constant():
    eq = FinEquation(FreeD(parse("1/(u+0.5)")), ConstantH(-2))
    r = classify(eq)
    assert r.case == 8 and r.params["eps"] == -1
    assert "rescaled" in r.note
    for vf in r.basis:
        assert symmetry_residual(eq, vf) <= 1e-9


def test_free_exponential_h_with_rate_is_case5():
    eq = FinEquation(PowerU(-4 / 3), FreeH(parse("exp(-2*x)")))
    r = classify(eq)
    assert r.case == 5
    assert r.params["eps"] == 1
    assert "rate" in (r.note or "")
    for vf in r.basis:
        assert symmetry_residual(eq, vf) <= 1e-9


def test_fit_shapes_directly():
    d = fit_d_shape(parse("2*exp(3*u)"))
    assert d.kind == "exp"
    assert d.coeff == pytest.approx(2.0, rel=1e-9)
    assert d.k == pytest.approx(3.0, rel=1e-9)
    h = fit_h_shape(parse("-2*x^1.5"))
    assert h.kind == "power"
    assert h.coeff == pytest.approx(-2.0, rel=1e-9)
    assert h.q == pytest.approx(1.5, rel=1e-9)
    prof = fit_h_shape(parse("3*exp(-2/x)"))
    assert prof.kind == "h1"
    assert prof.p == 0 and prof.q == pytest.approx(2.0, rel=1e-8)
    assert fit_h_shape(parse("x^2+x")).kind == "arbitrary"
    assert fit_d_shape(parse("u^2+1")).kind == "arbitrary"


def test_fast_exponential_fit_is_silent():
    # e^(300 u) overflows on part of the sample range; the fit reads the
    # finite samples and prints no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = fit_d_shape(parse("exp(300*u)"))
    assert d.kind == "exp"
    assert d.k == pytest.approx(300.0, rel=1e-9)


def test_power_x_with_zero_exponent_is_constant():
    r = classify(FinEquation(PowerU(2), PowerX(0, 1)))
    assert r.case == 10


def test_to_json_shape():
    doc = classify(FinEquation(PowerU(2), PowerX(3, 1))).to_json()
    assert doc == {"case": 4, "params": {"n": 2, "q": 3, "eps": 1},
                   "basis": ["d_t", "-6*t*d_t+2*x*d_x+5*u*d_u"],
                   "note": None}


@pytest.mark.parametrize("h,case", [
    (ConstantH(1), 8), (ConstantH(0), 11), (FreeH(parse("x^2+x")), 1),
])
def test_fitted_unit_shift_prints_no_note(h, case):
    # the fit reads the shift of (u+1)^(-1) as 1 up to rounding
    r = classify(FinEquation(FreeD(parse("(u+1)^(-1)")), h))
    assert r.case == case and r.note is None


CATALOG = pathlib.Path(__file__).with_name("classification_catalog.json")


def test_classification_catalog_is_pinned():
    # a grid of tagged and free-form D and h specs at seed 42: a tagged row
    # pins the whole result; a free-form row pins case, note and basis size
    # and checks each generator, so no fitted bit is pinned
    catalog = json.loads(CATALOG.read_text())
    for row in catalog["tagged"]:
        eq = equation_from_json({"D": row["D"], "h": row["h"]})
        assert classify(eq).to_json() == row["result"], row
    for row in catalog["free_form"]:
        eq = equation_from_json({"D": row["D"], "h": row["h"]})
        r = classify(eq)
        assert (r.case, r.note, len(r.basis)) == (
            row["case"], row["note"], row["generators"]), row
        for vf in r.basis:
            assert symmetry_residual(eq, vf) <= 1e-9, (row, vf.to_string())
