import numpy as np
import pytest

from finsym.classify import classify
from finsym.expressions import (
    add, differentiate, div, evaluate, mul, parse, sub, substitute, sym,
)
from finsym.model import (
    ConstantH, ExpU, FinEquation, FreeD, FreeH, H1, InverseSquareX, PowerU,
    PowerX, VectorField,
)
from finsym.symmetry import (
    JetResidual, SymmetryError, _raw_terms, _rhs, conditional_residual,
    prolonged_residual, symmetry_residual,
)
from test_acceptance import TABLE_CORPUS

D_T = VectorField.parse_triple("1;0;0")
D_X = VectorField.parse_triple("0;1;0")


def test_translation_in_x_for_constant_h():
    eq = FinEquation(FreeD(parse("u^2+1")), ConstantH(1))
    res = prolonged_residual(eq, D_X)
    assert res.max_relative() <= 1e-12
    assert {"u_t"}.isdisjoint(res.residual.free_symbols())


def test_time_translation_is_kernel():
    for eq in [FinEquation(PowerU(2), PowerX(3, 1)),
               FinEquation(FreeD(parse("u^3+u")), FreeH(parse("x^2+x"))),
               FinEquation(ExpU(), ConstantH(0))]:
        assert prolonged_residual(eq, D_T).max_relative() <= 1e-12


def test_scaling_field_is_not_a_symmetry_of_case4():
    eq = FinEquation(PowerU(1), PowerX(1, 1))
    res = prolonged_residual(eq, VectorField.parse_triple("0;0;u"))
    point = {"t": 1.0, "x": 1.0, "u": 1.0, "u_x": 1.0, "u_xx": 1.0}
    value = sum(float(evaluate(term, point)) for term in res.terms)
    assert abs(value) > 1e-3
    assert symmetry_residual(eq, VectorField.parse_triple("0;0;u")) > 1e-9


@pytest.mark.parametrize("eq,field", [
    (FinEquation(PowerU(-4 / 3), H1(1, 1, 1)),
     VectorField.parse_triple("-4*t; 4*(x^2+1); -3*(4*x+1)*u")),
    (FinEquation(ExpU(), ConstantH(0)), VectorField.parse_triple("0; x; 2")),
    (FinEquation(FreeD(parse("u^2+u")), InverseSquareX()),
     VectorField.parse_triple("2*t; x; 0")),
])
def test_listed_generators_are_symmetries(eq, field):
    assert symmetry_residual(eq, field) <= 1e-9


def test_prolongation_is_linear_in_the_field():
    eq = FinEquation(PowerU(2), ConstantH(1))
    x_field = VectorField.parse_triple("exp(-2*t); 0; exp(-2*t)*u")
    y_field = VectorField.parse_triple("0; 2*x; 2*u")
    a, b = 1.7, -0.6
    combo = VectorField(
        add(mul(a, x_field.tau), mul(b, y_field.tau)),
        add(mul(a, x_field.xi), mul(b, y_field.xi)),
        add(mul(a, x_field.eta), mul(b, y_field.eta)))
    r_combo = prolonged_residual(eq, combo).residual
    r_x = prolonged_residual(eq, x_field).residual
    r_y = prolonged_residual(eq, y_field).residual
    rng = np.random.default_rng(5)
    for _ in range(20):
        pt = {"t": rng.uniform(0.1, 2), "x": rng.uniform(0.5, 3),
              "u": rng.uniform(0.5, 3), "u_x": rng.uniform(-2, 2),
              "u_xx": rng.uniform(-2, 2)}
        lhs = float(evaluate(r_combo, pt))
        rhs = a * float(evaluate(r_x, pt)) + b * float(evaluate(r_y, pt))
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))


def test_shape_preconditions():
    eq = FinEquation(PowerU(2), ConstantH(1))
    with pytest.raises(SymmetryError):
        prolonged_residual(eq, VectorField.parse_triple("x;0;0"))
    with pytest.raises(SymmetryError):
        prolonged_residual(eq, VectorField.parse_triple("u;0;0"))
    with pytest.raises(SymmetryError):
        prolonged_residual(eq, VectorField.parse_triple("1;u;0"))


NONCLASSICAL_EQ = FinEquation(PowerU(-1), FreeH(parse("x")))


def test_conditional_operator_with_zero_tau():
    field = VectorField.parse_triple("0; 1; t*u")
    assert conditional_residual(NONCLASSICAL_EQ, field).max_relative() <= 1e-9


def test_conditional_operator_with_unit_tau():
    field = VectorField.parse_triple("1; 0; x*u")
    assert conditional_residual(NONCLASSICAL_EQ, field).max_relative() <= 1e-9


def test_jet_sampling_exits():
    with pytest.raises(SymmetryError):
        JetResidual((parse("ln(-1-x^2)"),)).max_relative()
    # finite only for x > 2.5, a fifth of the x range: fewer than half of
    # each round's samples, so rounds are topped up until 50 are finite
    partial = JetResidual((parse("ln(x-2.5)"), parse("u")))
    assert np.isfinite(partial.max_relative())
    assert np.isfinite(JetResidual((parse("ln(x-1)"),)).max_relative())


def test_x_translation_is_not_conditional_here():
    res = conditional_residual(NONCLASSICAL_EQ, D_X)
    assert res.max_relative() > 1e-3


def test_conditional_rejects_general_tau():
    with pytest.raises(SymmetryError):
        conditional_residual(NONCLASSICAL_EQ,
                             VectorField.parse_triple("2;1;0"))
    with pytest.raises(SymmetryError):
        conditional_residual(NONCLASSICAL_EQ,
                             VectorField.parse_triple("0;0;u"))


def test_lie_symmetries_are_conditional_symmetries():
    # the supported operator shapes from the table: tau = 1 or tau = 0
    cases = [
        (FinEquation(PowerU(2), ConstantH(1)), D_T),
        (FinEquation(PowerU(2), ConstantH(1)), D_X),
        (FinEquation(PowerU(3), ConstantH(-1)),
         VectorField.parse_triple("0; 3*x; 2*u")),
        (FinEquation(ExpU(), ConstantH(0)),
         VectorField.parse_triple("0; x; 2")),
        (FinEquation(PowerU(-4 / 3), ConstantH(1)),
         VectorField.parse_triple("0; x^2; -3*x*u")),
    ]
    for eq, field in cases:
        assert symmetry_residual(eq, field) <= 1e-9
        assert conditional_residual(eq, field).max_relative() <= 1e-9


def test_scaling_transport_of_verdicts():
    # h -> c h together with t -> t/c preserves symmetry verdicts
    from finsym.equivalence import apply_to_equation, make_group_element, \
        push_forward_field
    eq = FinEquation(PowerU(2), PowerX(3, 1))
    T = make_group_element("Gsim", (0.5, 0, 1, 0, 1))
    image = apply_to_equation(T, eq)
    from finsym.classify import classify
    for field in classify(eq).basis:
        pushed = push_forward_field(T, field)
        assert symmetry_residual(image, pushed) <= 1e-9


def _built_free_then_substituted(eq, field, mapping):
    """The pieces built with a free u_t, then substituted by ``mapping``."""
    return tuple(substitute(term, mapping)
                 for term in _raw_terms(eq, field, sym("u_t")))


def test_pieces_built_on_shell_equal_the_substituted_pieces():
    # repr tells Num(0.0) from Num(-0.0), which compare equal
    for entries in TABLE_CORPUS.values():
        for eq, _ in entries:
            for field in classify(eq).basis:
                want = _built_free_then_substituted(eq, field,
                                                    {"u_t": _rhs(eq)})
                got = prolonged_residual(eq, field).terms
                assert repr(got) == repr(want), (eq, field.to_string())

    eq = NONCLASSICAL_EQ
    u, u_x = sym("u"), sym("u_x")
    d, d1, h = eq.d_expr(), differentiate(eq.d_expr(), "u"), eq.h_expr()
    unit = VectorField.parse_triple("1; 0; x*u")
    u_t = sub(unit.eta, mul(unit.xi, u_x))
    u_xx = div(sub(sub(u_t, mul(d1, mul(u_x, u_x))), mul(h, u)), d)
    want = _built_free_then_substituted(eq, unit, {"u_t": u_t, "u_xx": u_xx})
    assert repr(conditional_residual(eq, unit).terms) == repr(want)

    zero = VectorField.parse_triple("0; 1; t*u")
    w = div(zero.eta, zero.xi)
    w_total = add(differentiate(w, "x"), mul(differentiate(w, "u"), w))
    u_t = add(add(mul(d, w_total), mul(d1, mul(w, w))), mul(h, u))
    want = _built_free_then_substituted(
        eq, zero, {"u_x": w, "u_xx": w_total, "u_t": u_t})
    assert repr(conditional_residual(eq, zero).terms) == repr(want)
