import math
import re
import warnings

import numpy as np
import pytest

from finsym.equivalence import (
    CoefficientRule, ComplexFieldOnlyError, ConditionError,
    DeltaConstraintError, EquivalenceError, NoAdditionalMapError,
    OutsideClassReport, PointTransformation, additional_equivalence,
    apply_to_equation, make_group_element, map_by_label, push_forward_field,
    push_forward_solution,
)
from finsym.classify import classify
from finsym.expressions import equivalent, parse
from finsym.model import (
    ConstantH, ExpU, ExpX, FinEquation, FreeD, FreeH, H1, ModelError, PowerU,
    PowerX, ReciprocalShift, ShiftedPowerU, Solution, equations_equal,
)
from finsym.numeric import pde_residual_grid
from finsym.reductions import exact_solution
from finsym.symmetry import symmetry_residual


def test_time_scaling_halves_both_coefficients():
    T = make_group_element("Gsim", (2, 0, 1, 0, 1))
    assert str(T.t_new) == "2*t"
    eq = FinEquation(PowerU(2), FreeH(parse("x^2")))
    out = apply_to_equation(T, eq)
    assert equivalent(out.d_expr(), parse("u^2/2"), seed=1)
    assert equivalent(out.h_expr(), parse("x^2/2"), seed=2)


def test_identity_element_is_identity():
    T = make_group_element("Gsim", (1, 0, 1, 0, 1))
    eq = FinEquation(PowerU(2), PowerX(3, 1))
    assert apply_to_equation(T, eq) == eq


def test_g1_inversion_element():
    T = make_group_element("G1", (1, 0, 0, 1, 1, 0), sign=1)
    assert str(T.x_new) == "1/x" or equivalent(T.x_new, parse("1/x"), seed=3)
    assert equivalent(T.u_new, parse("x^3*u"), seed=4)


def test_delta_constraints():
    with pytest.raises(DeltaConstraintError):
        make_group_element("Gsim", (0, 0, 1, 0, 1))
    with pytest.raises(DeltaConstraintError):
        make_group_element("G1", (-1, 0, 0, 1, 1, 0))
    with pytest.raises(DeltaConstraintError):
        make_group_element("G1", (1, 0, 2, 0, 0, 1))  # det = 2
    with pytest.raises(DeltaConstraintError):
        make_group_element("G2", (1, 0, 1, 0, 0, 1))


@pytest.mark.parametrize("family,deltas,sign,message", [
    ("Gsim", (1, 0, 1, 0), 1, "Gsim takes five constants"),
    ("G2", (1, 0, 1, 0, 1), 1, "G2 takes six constants"),
    ("G1", (1, 0, 0, 1, 1), 1, "G1 takes six constants"),
    ("G1", (1, 0, 0, 1, 1, 0), 2, "sign must be"),
    ("G3", (1, 0, 1, 0, 1, 0), 1, "G3 takes the five Gsim constants"),
    ("G4", (1, 0, 1, 0, 1), 1, "unknown group family 'G4'"),
])
def test_make_group_element_refusals(family, deltas, sign, message):
    eq = FinEquation(PowerU(2), ConstantH(1))
    with pytest.raises(EquivalenceError, match=message):
        make_group_element(family, deltas, sign=sign, eq=eq)


def test_g3_has_no_closed_form_inverse_element():
    T = make_group_element("G3", (1, 0, 1, 0, 1),
                           eq=FinEquation(PowerU(2), ConstantH(1)))
    with pytest.raises(EquivalenceError, match="no closed-form inverse"):
        T.inverse()


def test_condition_tags_enforced():
    T1 = make_group_element("G1", (1, 0, 0, 1, 1, 0))
    with pytest.raises(ConditionError):
        apply_to_equation(T1, FinEquation(PowerU(2), H1(0, 1, 1)))
    T2 = make_group_element("G2", (1, 0, 1, 0, 1, 1))
    with pytest.raises(ConditionError):
        apply_to_equation(T2, FinEquation(PowerU(2), ConstantH(1)))
    with pytest.raises(ConditionError):
        make_group_element("G3", (1, 0, 1, 0, 1),
                           eq=FinEquation(PowerU(2), PowerX(1, 1)))
    with pytest.raises(DeltaConstraintError):
        make_group_element("G3", (1, 0, 1, 0, 1))
    with pytest.raises(ConditionError, match="G3 requires a power"):
        make_group_element("G3", (1, 0, 1, 0, 1),
                           eq=FinEquation(ExpU(), ConstantH(1)))

    # each condition is a shape match: near misses are refused, free-form
    # coefficients of the required shape accepted
    with pytest.raises(ConditionError, match="G1 requires D"):
        apply_to_equation(T1, FinEquation(PowerU(-4 / 3 + 1e-10), H1(0, 1, 1)))
    apply_to_equation(T1, FinEquation(FreeD(parse("u^(-4/3)")), H1(0, 1, 1)))

    T8, _ = map_by_label("case8-out", {"eps": 1})
    with pytest.raises(ConditionError, match="case8-out requires h"):
        apply_to_equation(T8, FinEquation(ReciprocalShift(), ConstantH(2)))
    with pytest.raises(ConditionError, match="case8-out requires D"):
        apply_to_equation(T8, FinEquation(PowerU(2), ConstantH(1)))
    apply_to_equation(T8, FinEquation(FreeD(parse("(u+1)^(-1)")),
                                      FreeH(parse("1"))))

    T3 = make_group_element("G3", (1, 0, 1, 0, 1),
                            eq=FinEquation(PowerU(2), ConstantH(1)))
    with pytest.raises(ConditionError, match="G3 requires h"):
        apply_to_equation(T3, FinEquation(PowerU(2), ConstantH(2)))
    with pytest.raises(ConditionError, match="G3 requires D"):
        apply_to_equation(T3, FinEquation(PowerU(3), ConstantH(1)))
    image = apply_to_equation(T3, FinEquation(FreeD(parse("u^2")),
                                              FreeH(parse("1"))))
    assert equations_equal(image, FinEquation(PowerU(2), ConstantH(0)))


def test_g1_acts_on_exactly_the_class_classified_as_four_thirds():
    T1 = make_group_element("G1", (1, 0, 0, 1, 1, 0))
    near = FinEquation(PowerU(-4 / 3 + 2e-12), ConstantH(1))
    assert classify(near).case == 12
    apply_to_equation(T1, near)
    off = FinEquation(PowerU(-4 / 3 + 5e-12), ConstantH(1))
    assert classify(off).case == 10
    with pytest.raises(ConditionError):
        apply_to_equation(T1, off)


#: (source, element family, deltas, coefficient): elements whose rule for
#: that coefficient is not the identity but maps it into its own family
RETAG_CASES = {
    "exp_u": (FinEquation(ExpU(), ConstantH(0)), "G2",
              (1 / math.e, 0, 1, 0, 1, 1), "D"),
    "shifted_power_u": (FinEquation(ShiftedPowerU(2, 1), ConstantH(0)), "G2",
                        (1, 0, 2, 0, 2, 1), "D"),
    "power_u": (FinEquation(PowerU(2), ConstantH(1)), "Gsim",
                (1, 0, 2, 0, 2), "D"),
    "exp_x": (FinEquation(PowerU(2), ExpX(-1)), "Gsim",
              (1 / math.e, 0, 1, 1, 1), "h"),
    "power_x": (FinEquation(PowerU(2), PowerX(2, -1)), "Gsim",
                (0.25, 0, 2, 0, 1), "h"),
    "h1": (FinEquation(PowerU(2), H1(0, 1, -1)), "Gsim", (1, 0, 2, 0, 1), "h"),
    "constant": (FinEquation(PowerU(2), ConstantH(3)), "Gsim",
                 (2, 0, 1, 0, 1), "h"),
}


def _rule_image(T, src, coeff):
    if coeff == "D":
        return T.d_rule, "u", T.d_rule.apply(src.d_expr(), "u")
    return T.h_rule, "x", T.h_rule.apply(src.h_expr(), "x")


@pytest.mark.parametrize("family", RETAG_CASES)
def test_image_in_the_same_family_is_retagged(family):
    src, element, deltas, coeff = RETAG_CASES[family]
    T = make_group_element(element, deltas)
    rule, var, want = _rule_image(T, src, coeff)
    assert not rule.is_identity(var)
    spec = getattr(apply_to_equation(T, src), coeff)
    assert spec.family == family
    assert equivalent(spec.expression(), want, seed=5, tol=1e-12)


@pytest.mark.parametrize("family", [f for f in RETAG_CASES if f != "constant"])
def test_image_off_the_family_coefficient_stays_free_form(family):
    src, element, deltas, coeff = RETAG_CASES[family]
    T = make_group_element(element, (deltas[0] / (1 + 1e-6), *deltas[1:]))
    _, _, want = _rule_image(T, src, coeff)
    spec = getattr(apply_to_equation(T, src), coeff)
    assert spec.family == "free"
    assert spec.expression() == want


def test_round_trip_identity_on_equations():
    rng = np.random.default_rng(3)
    eq = FinEquation(PowerU(2), PowerX(3, 1))
    for _ in range(10):
        deltas = (rng.uniform(0.3, 2), rng.uniform(-1, 1),
                  rng.uniform(0.3, 2), rng.uniform(-1, 1),
                  rng.uniform(0.3, 2))
        T = make_group_element("Gsim", deltas)
        back = apply_to_equation(T.inverse(), apply_to_equation(T, eq))
        assert equations_equal(eq, back, tol=1e-12)


def test_gsim_group_law_on_coefficient_maps():
    a = make_group_element("Gsim", (2, 1, 0.5, -1, 3))
    b = make_group_element("Gsim", (0.25, 0, 2, 0.5, 0.5))
    composed = make_group_element(
        "Gsim",
        (2 * 0.25, 0.25 * 1 + 0, 0.5 * 2, 2 * (-1) + 0.5, 3 * 0.5))
    eq = FinEquation(PowerU(2), FreeH(parse("x^2+x")))
    two_step = apply_to_equation(b, apply_to_equation(a, eq))
    one_step = apply_to_equation(composed, eq)
    assert equations_equal(two_step, one_step, tol=1e-9)


MAP_CASES = [
    ("6p0-to-5", FinEquation(PowerU(-4 / 3), H1(0, 2, 1)),
     {"p": 0, "q": 2.0, "eps": 1}, 5, {"n": -4 / 3, "eps": 1}),
    ("6pm1-to-4", FinEquation(PowerU(-4 / 3), H1(-1, 4, 1)),
     {"p": -1, "q": 4.0, "eps": 1}, 4, {"n": -4 / 3, "q": 2.0, "eps": 1}),
    ("11a-to-11", FinEquation(ShiftedPowerU(2, 1), ConstantH(0)),
     {"n": 2.0, "alpha": 1.0}, 11, {"n": 2.0, "alpha": 0.0}),
    ("13a-to-13", FinEquation(ShiftedPowerU(-4 / 3, 1), ConstantH(0)),
     {"alpha": 1.0}, 13, {"alpha": 0.0}),
    ("10-to-11", FinEquation(PowerU(2), ConstantH(1)),
     {"n": 2.0, "eps": 1}, 11, {"n": 2.0, "alpha": 0.0}),
    ("12-to-13", FinEquation(PowerU(-4 / 3), ConstantH(1)),
     {"eps": 1}, 13, {"alpha": 0.0}),
]


@pytest.mark.parametrize("label,src,params,want_case,want_params", MAP_CASES,
                         ids=[c[0] for c in MAP_CASES])
def test_named_maps_reach_declared_targets(label, src, params, want_case,
                                           want_params):
    T, target = map_by_label(label, params)
    assert target[0] == want_case
    image = apply_to_equation(T, src)
    result = classify(image)
    assert result.case == want_case
    for key, want in want_params.items():
        assert result.params[key] == pytest.approx(want, abs=1e-9)


def test_case8_map_reports_outside_class():
    T, target = map_by_label("case8-out", {"eps": 1})
    assert target is None
    report = apply_to_equation(T, FinEquation(ReciprocalShift(), ConstantH(1)))
    assert isinstance(report, OutsideClassReport)
    assert "u^-1" in report.target
    with pytest.raises(ConditionError):
        apply_to_equation(T, FinEquation(PowerU(2), ConstantH(1)))


def test_case6_p1_is_complex_only():
    with pytest.raises(ComplexFieldOnlyError):
        additional_equivalence(6, {"p": 1, "q": 1, "eps": 1})


@pytest.mark.parametrize("case,params,error,message", [
    (6, {"p": 0, "q": 0, "eps": 1}, EquivalenceError, "requires q != 0"),
    (6, {"p": 2, "q": 1, "eps": 1}, EquivalenceError, "requires p in"),
    (11, {"n": 2, "alpha": 0}, NoAdditionalMapError, "already in normal form"),
    (8, {"eps": 2}, EquivalenceError, "case 8 requires eps"),
])
def test_additional_equivalence_refusals(case, params, error, message):
    with pytest.raises(error, match=message):
        additional_equivalence(case, params)


def test_unknown_map_label():
    with pytest.raises(NoAdditionalMapError):
        map_by_label("nope", {})
    with pytest.raises(NoAdditionalMapError):
        additional_equivalence(7, {})


def test_ten_to_eleven_time_map_shape():
    T, _ = additional_equivalence(10, {"n": 2.0, "eps": 1})
    assert equivalent(T.t_new, parse("exp(2*t)/2"), seed=8)
    assert equivalent(T.u_new, parse("exp(-t)*u"), seed=9)


def test_push_forward_solution_identity_and_scaling():
    s = Solution(parse("x^3/15"))
    ident = make_group_element("Gsim", (1, 0, 1, 0, 1))
    assert equivalent(push_forward_solution(ident, s).expr, s.expr, seed=10)

    scale_u = make_group_element("Gsim", (1, 0, 1, 0, 2))
    pushed = push_forward_solution(scale_u, s)
    assert equivalent(pushed.expr, parse("2*x^3/15"), seed=11)
    eq = FinEquation(PowerU(1), PowerX(1, -1))
    image = apply_to_equation(scale_u, eq)
    assert pde_residual_grid(image, pushed, ((0, 1), (1, 2))) <= 1e-12


def test_push_forward_case6_solution_to_case5():
    src = FinEquation(PowerU(-4 / 3), H1(0, -1, 1))
    T, _ = additional_equivalence(6, {"p": 0, "q": -1, "eps": 1})
    sol = exact_solution(6, {"p": 0, "q": -1, "eps": 1})
    image = apply_to_equation(T, src)
    pushed = push_forward_solution(T, sol)
    assert pde_residual_grid(image, pushed, ((0, 1), (0.5, 2))) <= 1e-10
    closed = exact_solution(5, {"n": -4 / 3, "eps": 1})
    assert equivalent(pushed.expr, closed.expr, seed=12, tol=1e-9)


def test_symmetry_transport_through_named_maps():
    for label, src, params, _, _ in MAP_CASES:
        T, _ = map_by_label(label, params)
        image = apply_to_equation(T, src)
        ranges = None
        if label == "12-to-13":
            ranges = {"t": (-0.9, -0.2)}
        if label == "6pm1-to-4":
            ranges = {"x": (0.2, 0.45)}  # image of x > 1 under (x-1)/(x+1)
        for field in classify(src).basis:
            pushed = push_forward_field(T, field)
            assert symmetry_residual(image, pushed, ranges=ranges) <= 1e-9, \
                label


@pytest.mark.parametrize("deltas", [
    (1, 0, 1, 0, 1), (2, 0.5, -3, 1.25, -0.5), (-0.7, -2, 0.4, 0, 3),
    (1.5, 0, -1, -4, 2.5),
])
@pytest.mark.parametrize("d6", [0.0, -0.0])
def test_gsim_is_the_translation_free_slice_of_g2(deltas, d6):
    gsim = make_group_element("Gsim", deltas)
    g2 = make_group_element("G2", (*deltas, d6))
    # repr tells Num(0.0) from Num(-0.0), which compare equal
    for name in ("t_new", "x_new", "u_new", "t_old", "x_old", "u_old",
                 "d_rule"):
        assert repr(getattr(g2, name)) == repr(getattr(gsim, name)), name


def test_a_named_map_refuses_params_contradicting_its_own():
    with pytest.raises(ConditionError, match="requires p = 0, got p = -1"):
        map_by_label("6p0-to-5", {"p": -1, "q": 2.0, "eps": 1})


@pytest.mark.parametrize("d5", [1e-300, 1e100], ids=["under", "over"])
def test_g3_refuses_a_d5_whose_power_leaves_the_float_range(d5):
    # d5^5 underflows to 0 or overflows
    with pytest.raises(DeltaConstraintError, match="out of float range"):
        make_group_element("G3", (1, 0, 1, 0, d5),
                           eq=FinEquation(PowerU(5), ConstantH(1)))


@pytest.mark.parametrize("d3", [1e-200, 1e200], ids=["under", "over"])
def test_g3_refuses_a_d3_whose_square_leaves_the_float_range(d3):
    # d3^2 underflows to 0 (the D rule would be 0*u^5) or overflows to inf,
    # for the integer n = 5, so no fractional-exponent message
    with pytest.raises(DeltaConstraintError, match="out of float range"):
        make_group_element("G3", (1, 0, d3, 0, 1),
                           eq=FinEquation(PowerU(5), ConstantH(1)))


def test_g3_refuses_a_negative_d5_for_a_fractional_exponent():
    with pytest.raises(DeltaConstraintError, match="d5 must be positive"):
        make_group_element("G3", (1, 0, 1, 0, -1),
                           eq=FinEquation(PowerU(0.5), ConstantH(-2.0)))
    T = make_group_element("G3", (1, 0, 1, 0, -1),
                           eq=FinEquation(PowerU(2), ConstantH(-2.0)))
    assert T.d_rule.override == parse("u^2")


def test_g3_on_a_fitted_fractional_power_refuses_a_negative_d5_quietly():
    # the fitted exponent is a Python float, so d5^n is complex as for the
    # tagged PowerU(0.5), not numpy's NaN with a RuntimeWarning
    eq = FinEquation(FreeD(parse("u^0.5")), ConstantH(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DeltaConstraintError, match="d5 must be positive"):
            make_group_element("G3", (1, 0, 1, 0, -2), eq=eq)


def test_an_element_is_its_maps_rules_and_required_specs():
    assert list(PointTransformation._fields) == [
        "label", "t_new", "x_new", "u_new", "t_old", "x_old", "u_old",
        "d_rule", "h_rule", "requires_d", "requires_h", "outside_class"]
    T1 = make_group_element("G1", (1, 0, 0, 1, 1, 0))
    assert T1.requires_d == PowerU(-4 / 3)
    assert T1.d_rule.override == T1.requires_d.expression()
    T2 = make_group_element("G2", (1, 0, 1, 0, 1, 1))
    assert T2.requires_h == ConstantH(0)
    assert T2.h_rule.override == T2.requires_h.expression()
    T8, _ = map_by_label("case8-out", {"eps": -1})
    assert (T8.requires_d, T8.requires_h) == (ReciprocalShift(), ConstantH(-1))


def test_the_inverse_of_a_hand_built_affine_element_round_trips():
    x_old, u_old = parse("(x+1)/3"), parse("(u-0.25)/0.5")
    T = PointTransformation(
        label="affine", t_new=parse("2*t+1"), x_new=parse("3*x-1"),
        u_new=parse("0.5*u+0.25"), t_old=parse("(t-1)/2"), x_old=x_old,
        u_old=u_old, d_rule=CoefficientRule(parse("4.5"), u_old),
        h_rule=CoefficientRule(parse("0.5"), x_old))
    inv = T.inverse()
    assert inv.label == "affine^-1"
    assert (inv.t_new, inv.x_old, inv.u_old) == (T.t_old, T.x_new, T.u_new)
    for eq in (FinEquation(PowerU(2), PowerX(3, 1)),
               FinEquation(FreeD(parse("u^2+1")), FreeH(parse("x^2+x")))):
        back = apply_to_equation(inv, apply_to_equation(T, eq))
        assert equations_equal(eq, back, tol=1e-12)


@pytest.mark.parametrize("T", [
    make_group_element("Gsim", (2, 0.5, 3, 1, 1.5)),
    make_group_element("G1", (1, 0, 0, 1, 1, 0), sign=-1),
    make_group_element("G2", (1, 0, 1, 0, 1, 1)),
    map_by_label("6pm1-to-4", {"p": -1, "q": 4.0, "eps": 1})[0],
], ids=lambda T: T.label)
def test_the_inverse_is_labelled_with_the_element(T):
    assert T.inverse().label == T.label + "^-1"
    assert T.inverse().inverse().label == T.label + "^-1^-1"


@pytest.mark.parametrize("label,src,params,want_case,want_params",
                         MAP_CASES[:4], ids=[c[0] for c in MAP_CASES[:4]])
def test_the_inverse_of_a_named_map_round_trips(label, src, params,
                                                want_case, want_params):
    T, _ = map_by_label(label, params)
    back = apply_to_equation(T.inverse(), apply_to_equation(T, src))
    assert equations_equal(src, back, tol=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
def test_g1_with_determinant_minus_one_round_trips(sign):
    d3, d4, d5 = 1.25, 0.5, -0.4
    deltas = (1.5, -0.3, d3, d4, d5, (-1 + d4 * d5) / d3)
    T = make_group_element("G1", deltas, sign=sign)
    eq = FinEquation(PowerU(-4 / 3), H1(1, 2, 1))
    back = apply_to_equation(T.inverse(), apply_to_equation(T, eq))
    assert equations_equal(eq, back, tol=1e-12, ranges={"x": (2.0, 3.0)})


def test_an_element_without_coefficient_rules_has_no_inverse_element():
    T8, _ = map_by_label("case8-out", {"eps": 1})
    with pytest.raises(EquivalenceError, match="no closed-form inverse"):
        T8.inverse()


@pytest.mark.parametrize("rules, missing", [
    ((), "d_rule"), ((CoefficientRule(parse("1"), parse("u")),), "h_rule"),
])
def test_an_element_without_a_coefficient_rule_maps_no_equation(rules,
                                                                missing):
    t, x, u = parse("t"), parse("x"), parse("u")
    T = PointTransformation("id", t, x, u, t, x, u, *rules)
    with pytest.raises(EquivalenceError, match=re.escape(
            f"under 'id': it has no {missing}")):
        apply_to_equation(T, FinEquation(PowerU(2), ConstantH(1)))


def test_a_failed_condition_names_the_required_coefficient():
    T1 = make_group_element("G1", (1, 0, 0, 1, 1, 0))
    with pytest.raises(ConditionError, match=re.escape(
            "G1 requires D = u^-1.3333333333333333")):
        apply_to_equation(T1, FinEquation(PowerU(2), H1(0, 1, 1)))
    T2 = make_group_element("G2", (1, 0, 1, 0, 1, 1))
    with pytest.raises(ConditionError, match=re.escape("G2 requires h = 0")):
        apply_to_equation(T2, FinEquation(PowerU(2), ConstantH(1)))
    T8, _ = map_by_label("case8-out", {"eps": 1})
    with pytest.raises(ConditionError,
                       match=re.escape("case8-out requires D = (u+1)^-1")):
        apply_to_equation(T8, FinEquation(PowerU(2), ConstantH(1)))


#: the free-form templates of the equivariance fuzz
FUZZ_D = ("u^2", "u^(-4/3)", "exp(u)", "2*u^0.5", "(u+1)^(-1)")
FUZZ_H = ("0", "1", "x^2", "x^(-2)", "exp(x)", "x^0.5", "exp(-2/x)")


def equivariance_failures(seed: int, draws: int) -> list:
    """Seeded draws of a free-form equation from the templates, each mapped
    by a Gsim element (d1, d3 and d5 of either sign, x-shift d4 in
    (-4, 4)); the draws whose image is refused or gets another case or
    basis size than the equation, both classified at ``seed``."""
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(draws):
        d, h = rng.choice(FUZZ_D), rng.choice(FUZZ_H)
        d1, d3, d5 = rng.choice((-1.0, 1.0), 3) * np.exp(rng.uniform(-1, 1, 3))
        deltas = (d1, rng.uniform(-1, 1), d3, rng.uniform(-4, 4), d5)
        eq = FinEquation(FreeD(parse(d)), FreeH(parse(h)))
        r = classify(eq, seed)
        try:
            image = apply_to_equation(make_group_element("Gsim", deltas), eq)
            r_image = classify(image, seed)
        except ModelError as exc:
            failures.append((d, h, deltas, repr(exc)))
            continue
        if (r_image.case, len(r_image.basis)) != (r.case, len(r.basis)):
            failures.append((d, h, deltas, r.case, r_image.case))
    return failures


def test_gsim_images_get_the_same_case_and_basis_size():
    # the table is up to equivalence: a Gsim image is accepted, and it has
    # the case and the algebra dimension of the equation it comes from
    assert equivariance_failures(1, 400) == []
