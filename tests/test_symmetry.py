from collections import Counter

import numpy as np
import pytest

from finsym.classify import classify
import finsym.model
import finsym.symmetry
from finsym.expressions import (
    ExpressionError, Num, add, differentiate, div, evaluate, max_relative, mul, neg,
    parse, sub, substitute, sym,
)
from finsym.model import (
    ConstantH, ExpU, FinEquation, FreeD, FreeH, H1, InverseSquareX, PowerU,
    PowerX, VectorField,
)
from finsym.symmetry import (
    DEFAULT_JET_RANGES, JetResidual, SymmetryError, _raw_terms, conditional_residual,
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
    with pytest.raises(SymmetryError, match="eta may depend on"):
        prolonged_residual(eq, VectorField.parse_triple("0;0;u_x"))


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


def test_jet_test_is_the_relative_kernel_on_jet_ranges(monkeypatch):
    residual = prolonged_residual(FinEquation(PowerU(2), PowerX(3, 1)),
                                  VectorField.parse_triple("-6*t;2*x;4*u"))
    calls = []

    def counting(*args):
        calls.append(args)
        return max_relative(*args)

    monkeypatch.setattr(finsym.symmetry, "max_relative", counting)
    value = residual.max_relative(seed=3, samples=40, ranges={"x": (1, 2)})
    ranges = {**DEFAULT_JET_RANGES, "x": (1, 2)}
    assert calls == [(residual.terms, 3, 40, ranges)]
    assert value == max_relative(residual.terms, 3, 40, ranges)[0] > 0.1


def test_the_jet_test_samples_the_equations_ranges():
    # D = (u-2.97)^(-4/3) is finite above 2.97 only: its projective
    # generator is checked on the range validate keeps, unless one is given
    eq = FinEquation(FreeD(parse("(u-2.97)^(-4/3)")), ConstantH(0))
    field = VectorField.parse_triple("0;x^2;-3*x*(u-2.97)")
    assert eq.ranges["u"][0] > 3.0
    assert symmetry_residual(eq, field) <= 1e-12
    with pytest.raises(SymmetryError, match="jet sampling found only"):
        symmetry_residual(eq, field, ranges={"u": (0.5, 3.0)})
    assert symmetry_residual(eq, field, ranges={"u": (3.1, 3.2)}) <= 1e-12


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


def _reference_u_t(eq):
    """u_t on solutions, D u_xx + D_u u_x^2 + h u, derived afresh."""
    u, u_x, u_xx, d = sym("u"), sym("u_x"), sym("u_xx"), eq.d_expr()
    return add(add(mul(d, u_xx), mul(differentiate(d, "u"), mul(u_x, u_x))),
               mul(eq.h_expr(), u))


def _reference_terms(eq, field):
    """The prolonged pieces with every coefficient derivative taken afresh
    on each call, by the public functions."""
    tau, xi, eta = field.tau, field.xi, field.eta
    u, u_x, u_xx = sym("u"), sym("u_x"), sym("u_xx")
    d, h = eq.d_expr(), eq.h_expr()
    d1 = differentiate(d, "u")
    d2, h1 = differentiate(d1, "u"), differentiate(h, "x")
    u_t = _reference_u_t(eq)
    tau_t = differentiate(tau, "t")
    xi_t, xi_x = differentiate(xi, "t"), differentiate(xi, "x")
    eta_t, eta_x, eta_u = (differentiate(eta, v) for v in ("t", "x", "u"))
    eta_xp = add(eta_x, mul(u_x, sub(eta_u, xi_x)))
    eta_tp = add(eta_t, sub(mul(u_t, sub(eta_u, tau_t)), mul(u_x, xi_t)))
    deps = {"u": ("x",), "u_x": ("x",), "u_xx": ("x",)}
    eta_xxp = sub(differentiate(eta_xp, "x", deps=deps), mul(u_xx, xi_x))
    return (
        eta_tp,
        neg(mul(xi, mul(h1, u))),
        mul(eta, neg(add(add(mul(d1, u_xx), mul(d2, mul(u_x, u_x))), h))),
        neg(mul(mul(Num(2.0), d1), mul(u_x, eta_xp))),
        neg(mul(d, eta_xxp)),
    )


def _built_free_then_substituted(eq, field, mapping):
    """The pieces built with a free u_t, then substituted by ``mapping``."""
    return tuple(substitute(term, mapping)
                 for term in _raw_terms(eq, field, sym("u_t")))


def test_pieces_built_on_shell_equal_the_substituted_pieces():
    # repr tells Num(0.0) from Num(-0.0), which compare equal
    for entries in TABLE_CORPUS.values():
        for eq, _ in entries:
            for field in classify(eq).basis:
                want = _built_free_then_substituted(
                    eq, field, {"u_t": _reference_u_t(eq)})
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


@pytest.mark.parametrize("samples", [0, -3])
def test_symmetry_residual_refuses_a_sample_count_below_one(samples):
    eq = FinEquation(PowerU(2), ConstantH(1))
    with pytest.raises(ExpressionError,
                       match=f"need at least one sample, got {samples}"):
        symmetry_residual(eq, D_T, samples=samples)


FREE_FORM_ROWS = [
    FinEquation(FreeD(parse("u^3+u")), FreeH(parse("x^2+x"))),
    FinEquation(FreeD(parse("1.3*(u+0.7)^(-4/3)")), FreeH(parse("0"))),
    FinEquation(FreeD(parse("exp(u)+u^2")), FreeH(parse("1/x^2"))),
]


def test_the_kept_jet_pieces_build_the_reference_trees():
    rows = [row for entries in TABLE_CORPUS.values() for row in entries]
    rows += [(eq, None) for eq in FREE_FORM_ROWS]
    checked = 0
    for eq, ranges in rows:
        for field in classify(eq).basis:
            want = _reference_terms(eq, field)
            got = prolonged_residual(eq, field)
            # repr tells Num(0.0) from Num(-0.0), which compare equal
            assert got.terms == want, (eq, field.to_string())
            assert repr(got.terms) == repr(want), (eq, field.to_string())
            assert (got.max_relative(seed=5, ranges=ranges)
                    == JetResidual(want).max_relative(seed=5, ranges=ranges))
            checked += 1
    assert checked == 125


def _nodes(e):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def test_every_generator_shares_its_equations_brackets():
    # the residual's three factors that hold no field are built once per
    # equation: each residual holds the jet's own trees, never a rebuilt
    # copy (a leaf, such as 2 D_u = 2 for D = u, may repeat by value)
    rows = [row for entries in TABLE_CORPUS.values() for row in entries]
    rows += [(eq, None) for eq in FREE_FORM_ROWS]
    held = Counter()
    for eq, _ in rows:
        jet = eq.jet
        d, h = eq.d_expr(), eq.h_expr()
        d1 = differentiate(d, "u")
        d2, h1 = differentiate(d1, "u"), differentiate(h, "x")
        u, u_x, u_xx = sym("u"), sym("u_x"), sym("u_xx")
        assert jet._fields[:6] == ("d", "d_u", "d_uu", "h", "h_x", "u_t")
        assert repr(jet[:6]) == repr((d, d1, d2, h, h1, _reference_u_t(eq)))
        brackets = {
            "h_x_u": mul(h1, u),
            "eta_coeff": neg(add(add(mul(d1, u_xx), mul(d2, mul(u_x, u_x))),
                                 h)),
            "two_d_u": mul(Num(2.0), d1),
        }
        for name, want in brackets.items():
            assert repr(getattr(jet, name)) == repr(want), name
        for field in classify(eq).basis:
            terms = prolonged_residual(eq, field).terms
            # each factor's own piece: -xi h_x u, eta (...), -2 D_u u_x eta^x
            for name, term in zip(brackets, terms[1:4]):
                bracket = getattr(jet, name)
                for node in _nodes(term):
                    if node is bracket:
                        held[name] += 1
                    elif bracket.children():
                        assert node != bracket, (name, eq, field)
    assert min(held[name] for name in brackets) > 0, held


def test_an_equations_jet_pieces_are_derived_once(monkeypatch):
    eq = FinEquation(PowerU(-4 / 3), ConstantH(-1))
    basis = classify(eq).basis
    assert len(basis) == 5
    calls = Counter()

    def counting(e, var, deps=None):
        calls[repr(e), var] += 1
        return differentiate(e, var, deps)

    monkeypatch.setattr(finsym.model, "differentiate", counting)
    monkeypatch.setattr(finsym.symmetry, "differentiate", counting)
    for field in basis:
        assert (prolonged_residual(eq, field).terms
                == _reference_terms(eq, field))
    d, h = eq.d_expr(), eq.h_expr()
    d_u = differentiate(d, "u")
    assert calls[repr(d), "u"] == calls[repr(d_u), "u"] == 1
    assert calls[repr(h), "x"] == 1


def test_a_replaced_equation_prolongs_with_its_own_coefficients():
    eq = FinEquation(PowerU(2), ConstantH(1))
    scaling = VectorField.parse_triple("0; x; u")  # a symmetry for D = u^2
    assert symmetry_residual(eq, scaling) <= 1e-12
    cubic = eq._replace(D=PowerU(3))
    assert cubic.jet.d == PowerU(3).expression()
    assert (prolonged_residual(cubic, scaling).terms
            == _reference_terms(cubic, scaling))
    assert symmetry_residual(cubic, scaling) > 1e-3
    assert eq.jet.d == PowerU(2).expression()


def test_the_jet_pieces_are_not_part_of_an_equations_value():
    used = FinEquation(PowerU(2), PowerX(3, 1))
    prolonged_residual(used, D_T)
    fresh = FinEquation(PowerU(2), PowerX(3, 1))
    assert "jet" in vars(used) and "jet" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    # the value is the two specs: a pickle carries them and nothing kept
    assert used.__reduce__() == (FinEquation, (fresh.D, fresh.h))
