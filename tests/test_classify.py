import importlib
import json
import pathlib
import warnings

import numpy as np
import pytest

from finsym.classify import HShape, _ratio, classify, fit_d_shape, fit_h_shape
from finsym.expressions import (
    add, compile_expressions, differentiate, equivalent, mul, parse,
)
from finsym.model import (
    ConstantH, ExpU, ExpX, FinEquation, FreeD, FreeH, H1, InverseSquareX,
    PowerU, PowerX, ReciprocalShift, ShiftedPowerU, SpecKindError,
    _admissible_range, equation_from_json, h1_expression,
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
    # ln(x-2.9) is finite on 4% of (0.5, 3), so its samples are drawn
    # again above 2.9, where it matches no family
    assert fit_h_shape(parse("ln(x-2.9)")).kind == "arbitrary"
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


def test_free_form_catalog_verdicts_do_not_depend_on_the_fit_seed():
    catalog = json.loads(CATALOG.read_text())
    for seed in (1, 2, 3):
        for row in catalog["free_form"]:
            r = classify(equation_from_json({"D": row["D"], "h": row["h"]}),
                         seed)
            assert (r.case, r.note, len(r.basis)) == (
                row["case"], row["note"], row["generators"]), (seed, row)


#: free-form shifted powers whose zero lies inside the sampling range: the
#: power candidate is NaN past the zero unless its exponent is a whole
#: number, and a fractional power input is itself NaN there
SHIFTED_ZERO_ROWS = [
    ("(u-1.9)^2", "0", 11, 4), ("(u-1.9)^-1", "1", 8, 3),
    ("(u-1.9)^(-4/3)", "0", 13, 5), ("u^2", "(x-1.9)^2", 4, 2),
    ("u^2", "(x-1.6)^-2", 4, 2), ("u^-2", "x-1.93", 4, 2),
    ("u^2", "(x-1.9)^0.5", 4, 2),
    # a sampled h read before any shape is tried: zero and a constant
    ("u^2", "x-x", 11, 4), ("u^2", "x/x", 10, 4),
]


@pytest.mark.parametrize("seed", [42, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("d,h,case,size", SHIFTED_ZERO_ROWS)
def test_a_shift_with_its_zero_in_the_range_keeps_the_whole_algebra(
        d, h, case, size, seed):
    eq = FinEquation(FreeD(parse(d)), FreeH(parse(h)))
    r = classify(eq, seed)
    assert (r.case, len(r.basis)) == (case, size)
    for vf in r.basis:
        assert symmetry_residual(eq, vf) <= 1e-9, vf.to_string()


@pytest.mark.parametrize("d,h,message", [
    ("u^2", "(x-5)^0.5", "free h not evaluable"),
    ("u^(-4/3)", "ln(x-4.5)", "free h not evaluable"),
    ("ln(-u-5)", "0", "free D not evaluable"),
])
def test_a_coefficient_finite_nowhere_on_the_box_is_refused(d, h, message):
    # no grid point of [-4, 4] has a finite pair to sample, so no fit could
    # read the shape
    with pytest.raises(SpecKindError, match=message):
        FinEquation(FreeD(parse(d)), FreeH(parse(h)))


@pytest.mark.parametrize("h,case", [("2", 10), ("0", 11)])
def test_a_symbol_free_h_is_not_probed_and_classify_reads_it(h, case):
    # validate samples only an h with a free symbol; a constant is read once
    eq = FinEquation(FreeD(parse("u^2")), FreeH(parse(h)))
    assert classify(eq).case == case


#: zeros near the top of the range or past it, and reflected powers: the
#: fit draws its samples once more on the admissible range, and the jet
#: test samples there too
NEAR_END_ZERO_ROWS = [
    ("u^2", "(x-2.7)^0.5", 4, 2), ("(u-2.9)^(-4/3)", "0", 13, 5),
    ("(u-2.97)^(-4/3)", "0", 13, 5), ("(u-3.3)^(-4/3)", "0", 13, 5),
    ("u^2", "(x-2.95)^0.5", 4, 2), ("u^2", "(x-3.46)^1.55", 4, 2),
    ("u^2", "(4.5-x)^0.5", 4, 2), ("u^2", "(1.5-x)^0.5", 4, 2),
]


@pytest.mark.parametrize("seed", [42, *range(1, 13)])
@pytest.mark.parametrize("d,h,case,size", NEAR_END_ZERO_ROWS)
def test_a_zero_near_the_range_end_keeps_the_whole_algebra(
        d, h, case, size, seed):
    eq = FinEquation(FreeD(parse(d)), FreeH(parse(h)))
    r = classify(eq, seed)
    assert (r.case, len(r.basis)) == (case, size)
    for vf in r.basis:
        assert symmetry_residual(eq, vf) <= 1e-9, vf.to_string()


#: zeros from below the range (0.5, 3) to near its top: 27 evenly spaced,
#: and 1.75, the middle, where a share-of-points rule flipped with the seed
SHIFTED_ZEROS = [*np.round(np.linspace(0.3, 2.99, 27), 4), 1.75]


@pytest.mark.parametrize("seed", [42, *range(1, 13)])
def test_shifted_powers_on_both_sides_of_the_range_middle(seed):
    for z in SHIFTED_ZEROS:
        for n in ("2", "-1", "-4/3", "3", "0.5"):
            eq = FinEquation(FreeD(parse(f"(u-{z})^({n})")), ConstantH(0))
            r = classify(eq, seed)
            want = (13, 5) if n == "-4/3" else (11, 4)
            assert (r.case, len(r.basis)) == want, (z, n)
        for q in ("2", "-2", "1", "0.5", "3"):
            eq = FinEquation(FreeD(parse("u^2")),
                             FreeH(parse(f"(x-{z})^({q})")))
            r = classify(eq, seed)
            assert (r.case, len(r.basis)) == (4, 2), (z, q)


def test_inadmissible_samples_are_drawn_again_on_the_admissible_range():
    # (x-2.7)^0.5 and its slope are finite above 2.7 only: the fit draws 50
    # more points from the same generator, on the range validate keeps
    h = parse("(x-2.7)^0.5")
    admissible = FinEquation(FreeD(parse("u^2")), FreeH(h)).ranges["x"]
    pair = compile_expressions(h, differentiate(h, "x"))
    assert _admissible_range(pair, "x")[0] == admissible != (0.5, 3.0)
    rng = np.random.default_rng(42)
    first = rng.uniform(0.5, 3.0, 50)
    again = rng.uniform(*admissible, 50)
    with np.errstate(all="ignore"):
        xs, vals, scale, design, z = _ratio(h, "x", 42)
    assert xs.tobytes() == again.tobytes()
    assert design is not None and len(z) == 50
    # every sample admissible, or an inadmissible one (a zero slope) on a
    # coefficient finite throughout the range: no second draw
    for text in ("x-2.7", "x/x"):
        xs, *_ = _ratio(parse(text), "x", 42)
        assert xs.tobytes() == first.tobytes()
    # finite nowhere on [-4, 4]: no range to draw on
    with np.errstate(all="ignore"):
        xs, *_ = _ratio(parse("ln(x-5)"), "x", 42)
    assert xs.size == 0


#: the shapes that sampling 50 points gave each symbol-free h, which is
#: now evaluated once
SYMBOL_FREE_H = {
    "0": HShape("zero"), "1e-13": HShape("zero"),
    "-1.234": HShape("const", coeff=-1.234),
    "2*3": HShape("const", coeff=6.0), "1/0": HShape("arbitrary"),
    "arctan(1/0)": HShape("const", coeff=1.5707963267948966),
}


@pytest.mark.parametrize("text", SYMBOL_FREE_H)
def test_a_symbol_free_h_is_read_not_fitted(text, monkeypatch):
    def no_fit(*args):
        raise AssertionError("a symbol-free h was sampled")

    # the package exports the function classify under the module's name
    monkeypatch.setattr(importlib.import_module("finsym.classify"), "_ratio",
                        no_fit)
    assert repr(fit_h_shape(parse(text))) == repr(SYMBOL_FREE_H[text])


def test_a_d_with_a_constant_quotient_classifies():
    # arctan(1/0) = pi/2 does not fold, yet its derivative is 0
    eq = FinEquation(FreeD(parse("u*(2+arctan(1/(0)))")), ConstantH(0))
    r = classify(eq)
    assert (r.case, len(r.basis)) == (11, 4)


#: free-form coefficients that each fit guard refuses, by the guard: the
#: arbitrary shape comes back, and no numpy warning
FIT_GUARDS = {
    # finite nowhere on (-4, 4), so there is no range to draw again on
    "too few finite ratios": (fit_d_shape, "ln(u-5)"),
    # drawn again on the admissible range above 2.9, none fits
    "a redrawn fit matches no rung": (fit_d_shape, "ln(u-2.9)"),
    "ratio overflows": (fit_d_shape, "1e300+1e-9*u"),
    # D is finite for u > 0.691, where the candidate e^(-1000u) is below
    # 1e-300: no ratio to take a median of
    "candidate underflows": (fit_d_shape, "exp(1400-1000*u)"),
    "no quadratic ratio fit": (fit_h_shape, "sign(x-2.9)"),
    "integral profile not verified": (fit_h_shape,
                                      "exp(arctan(x))*(1+1e-7*x)"),
    # 1 + e^(-100u) rounds to 1, so D = 0 where D' is not: zero ratios
    "zero slopes of D": (fit_d_shape, "ln(1+exp(-100*u))"),
    # the same where h' passes the 1e-300 test; h = 2 where it does not
    "zero slopes of h": (fit_h_shape, "ln(1+exp(-400*x))+(1+sign(x-2))"),
}


@pytest.mark.parametrize("guard", FIT_GUARDS)
def test_a_fit_guard_returns_the_arbitrary_shape_without_a_warning(guard):
    fit, text = FIT_GUARDS[guard]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit(parse(text)).kind == "arbitrary"


#: the integral-profile fits, the degree-2 rung that the catalogs reach
#: least: p, and coeff, q and shift as float.hex by seed; k is 1
H1_FITS = {
    "exp(-2/x)": (0, {
        42: ("0x1.0000000000000p+0", "0x1.0000000000000p+1",
            "0x0.0p+0"),
        1: ("0x1.ffffffffffffbp-1", "0x1.ffffffffffffcp+0",
            "0x0.0p+0"),
        2: ("0x1.ffffffffffff8p-1", "0x1.ffffffffffffcp+0",
            "0x0.0p+0"),
        3: ("0x1.0000000000004p+0", "0x1.0000000000004p+1",
            "0x0.0p+0"),
        4: ("0x1.ffffffffffffep-1", "0x1.0000000000000p+1",
            "0x0.0p+0"),
        5: ("0x1.fffffffffffffp-1", "0x1.ffffffffffffap+0",
            "0x0.0p+0"),
    }),
    "exp(2*arctan(x))": (1, {
        42: ("0x1.ffffffffffff7p-1", "0x1.0000000000002p+1",
            "0x0.0p+0"),
        1: ("0x1.0000000000001p+0", "0x1.ffffffffffffep+0",
            "0x0.0p+0"),
        2: ("0x1.0000000000005p+0", "0x1.ffffffffffffap+0",
            "0x0.0p+0"),
        3: ("0x1.ffffffffffff5p-1", "0x1.0000000000003p+1",
            "0x0.0p+0"),
        4: ("0x1.ffffffffffffap-1", "0x1.0000000000001p+1",
            "0x0.0p+0"),
        5: ("0x1.000000000000ap+0", "0x1.ffffffffffff8p+0",
            "0x0.0p+0"),
    }),
    "1.5*exp(3*arctan(x+0.25))": (1, {
        42: ("0x1.800000000000cp+0", "0x1.7fffffffffffcp+1",
            "0x1.0000000000002p-2"),
        1: ("0x1.8000000000004p+0", "0x1.7fffffffffffep+1",
            "0x1.000000000000ap-2"),
        2: ("0x1.8000000000006p+0", "0x1.7fffffffffffdp+1",
            "0x1.0000000000013p-2"),
        3: ("0x1.7ffffffffffecp+0", "0x1.8000000000005p+1",
            "0x1.000000000000ep-2"),
        4: ("0x1.8000000000015p+0", "0x1.7fffffffffffbp+1",
            "0x1.fffffffffffd6p-3"),
        5: ("0x1.8000000000012p+0", "0x1.7fffffffffffbp+1",
            "0x1.fffffffffffebp-3"),
    }),
    "abs((x-1)/(x+1))^1.5": (-1, {
        42: ("0x1.ffffffffffff6p-1", "0x1.7fffffffffffap+1",
            "0x0.0p+0"),
        1: ("0x1.ffffffffffffep-1", "0x1.8000000000002p+1",
            "0x0.0p+0"),
        2: ("0x1.ffffffffffffcp-1", "0x1.8000000000000p+1",
            "0x0.0p+0"),
        3: ("0x1.0000000000000p+0", "0x1.8000000000000p+1",
            "0x0.0p+0"),
        4: ("0x1.0000000000000p+0", "0x1.7fffffffffffdp+1",
            "0x0.0p+0"),
        5: ("0x1.ffffffffffff8p-1", "0x1.7fffffffffff7p+1",
            "0x0.0p+0"),
    }),
}


@pytest.mark.parametrize("text", H1_FITS)
def test_integral_profile_fits_keep_every_bit(text):
    p, by_seed = H1_FITS[text]
    for seed, (coeff, q, shift) in by_seed.items():
        h = fit_h_shape(parse(text), seed)
        got = h._asdict()
        want = {"kind": "h1", "coeff": coeff, "q": q, "k": (1.0).hex(),
                "p": p, "shift": shift}
        assert {k: v.hex() if type(v) is float else v
                for k, v in got.items()} == want, seed
