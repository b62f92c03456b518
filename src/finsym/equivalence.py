"""Equivalence transformations of the class u_t = (D(u) u_x)_x + h(x) u.

Four element families are constructible:

* ``Gsim``   affine scalings/translations acting on the whole class: the
             d6 = 0 slice of G2's map, with h's general rule,
* ``G1``     Moebius maps valid on the subclass D = u^(-4/3),
* ``G2``     the affine map t -> d1 t + d2, x -> d3 x + d4, u -> d5 u + d6,
             valid when h = 0,
* ``G3``     exponential time reparameterization, valid for constant h and
             power D (the variable change depends on the equation's h).

On top of these, the named case-to-case maps identify table cases that the
plain group does not, and one map exits the class entirely.

An element is its six maps, its two coefficient rules and the coefficient
specs it requires of D and h; it refuses an equation whose coefficient
shapes do not match the required specs' shapes at ``FOUR_THIRDS_TOL``.  An
image coefficient is retagged as the first family whose shape matches its
fitted shape, and stays free-form otherwise.  The inverse is read off the
maps: they swap, a factor rule new(v) = f * old(inner(v)) becomes
(1/f) * new(forward map), and a fixed coefficient that the element
requires stays fixed; no other element (G3, ``case8-out``) has one.
"""
from __future__ import annotations

import math

from .classify import _sign, fit_d_shape, fit_h_shape, spec_shape
from .expressions import (
    Expression, Num, ZERO, add, call, differentiate, div, mul, num, pow_,
    sub, substitute, sym, to_string,
)
from .model import (
    ADDITIONAL_MAP_LABELS, FOUR_THIRDS, FOUR_THIRDS_TOL, ConstantH, ExpU,
    ExpX, FinEquation, FreeD, FreeH, H1, ModelError, PowerU, PowerX,
    ReciprocalShift, ShiftedPowerU, Solution, Spec, VectorField, _record,
    shapes_match,
)

__all__ = [
    "PointTransformation", "CoefficientRule", "OutsideClassReport",
    "make_group_element", "apply_to_equation", "additional_equivalence",
    "push_forward_field", "push_forward_solution",
    "ADDITIONAL_MAP_LABELS", "map_by_label",
    "EquivalenceError", "DeltaConstraintError", "ConditionError",
    "ComplexFieldOnlyError", "NoAdditionalMapError",
]

_T, _X, _U = sym("t"), sym("x"), sym("u")


class EquivalenceError(ModelError):
    pass


class DeltaConstraintError(EquivalenceError):
    pass


class ConditionError(EquivalenceError):
    pass


class ComplexFieldOnlyError(EquivalenceError):
    pass


class NoAdditionalMapError(EquivalenceError):
    pass


class CoefficientRule(_record("CoefficientRule", "factor inner override",
                              defaults=(None, None, None))):
    """Rewrite of one arbitrary element: new(v) = factor * old(inner(v)),
    or a fixed override expression."""
    __slots__ = ()

    def is_identity(self, var: str) -> bool:
        return (self.override is None and self.factor == Num(1.0)
                and self.inner == sym(var))

    def apply(self, old: Expression, var: str) -> Expression:
        if self.override is not None:
            return self.override
        return mul(self.factor, substitute(old, {var: self.inner}))


class PointTransformation(_record(
        "PointTransformation",
        "label t_new x_new u_new t_old x_old u_old d_rule h_rule requires_d "
        "requires_h outside_class", defaults=(None,) * 5)):
    """Invertible point map with its action on the coefficients.

    Forward maps are expressions in the old variables (t, x, u); the
    stored inverse maps use the same symbol names to mean the new
    variables.  ``requires_d`` and ``requires_h`` are the coefficient
    specs whose shapes a conditional element needs the equation's D and
    h to have.
    """
    __slots__ = ()

    def inverse(self) -> "PointTransformation":
        """The element with the maps swapped; see the module docstring."""
        def back(rule, required, forward):
            if rule is not None and rule.override is None:  # a factor rule
                if required is None and isinstance(rule.factor, Num):
                    return CoefficientRule(num(1 / rule.factor.value), forward)
            elif rule is not None and required is not None:  # a fixed one
                if rule.override == required.expression():
                    return rule
            raise EquivalenceError(
                f"no closed-form inverse element for {self.label!r}; the "
                "inverse coordinate maps are stored on the transformation")

        return self._replace(
            label=f"{self.label}^-1",
            t_new=self.t_old, x_new=self.x_old, u_new=self.u_old,
            t_old=self.t_new, x_old=self.x_new, u_old=self.u_new,
            d_rule=back(self.d_rule, self.requires_d, self.u_new),
            h_rule=back(self.h_rule, self.requires_h, self.x_new))


class OutsideClassReport(_record("OutsideClassReport", "label target note")):
    """Produced when a map sends an equation outside the class."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# group element constructors


def _affine(family: str, deltas: tuple) -> PointTransformation:
    """The map t -> d1 t + d2, x -> d3 x + d4, u -> d5 u + d6, with its D
    rule and its general h rule; five ``deltas`` leave out d6 = 0."""
    d1, d2, d3, d4, d5, d6 = (*deltas, 0.0)[:6]
    if d1 * d3 * d5 == 0:
        raise DeltaConstraintError(f"{family} requires d1*d3*d5 != 0")
    x_old = div(sub(_X, num(d4)), num(d3))
    u_old = div(sub(_U, num(d6)), num(d5))
    return PointTransformation(
        label=family,
        t_new=add(mul(num(d1), _T), num(d2)),
        x_new=add(mul(num(d3), _X), num(d4)),
        u_new=add(mul(num(d5), _U), num(d6)),
        t_old=div(sub(_T, num(d2)), num(d1)),
        x_old=x_old, u_old=u_old,
        d_rule=CoefficientRule(num(d3 * d3 / d1), u_old),
        h_rule=CoefficientRule(num(1 / d1), x_old))


def make_group_element(family: str, deltas, sign: int = 1,
                       eq: FinEquation | None = None) -> PointTransformation:
    """Build one group element; see the module docstring for families.

    ``deltas`` carries the family's free constants; ``sign`` picks the
    branch of the cube-coefficient for G1 elements.  G3 reads the constant
    h and the power exponent from ``eq``.
    """
    deltas = tuple(float(v) for v in deltas)
    if family in ("Gsim", "G2"):
        size, word = (5, "five") if family == "Gsim" else (6, "six")
        if len(deltas) != size:
            raise DeltaConstraintError(f"{family} takes {word} constants")
        T = _affine(family, deltas)
        if family == "G2":
            zero = ConstantH(0)
            T = T._replace(h_rule=CoefficientRule(override=zero.expression()),
                           requires_h=zero)
        return T

    if family == "G1":
        if len(deltas) != 6:
            raise DeltaConstraintError("G1 takes six constants")
        d1, d2, d3, d4, d5, d6 = deltas
        det = d3 * d6 - d4 * d5
        if d1 <= 0:
            raise DeltaConstraintError("G1 requires d1 > 0")
        if abs(abs(det) - 1.0) > 1e-9:
            raise DeltaConstraintError("G1 requires d3*d6 - d4*d5 = +-1")
        if sign not in (-1, 1):
            raise DeltaConstraintError("sign must be +-1")
        den = add(mul(num(d5), _X), num(d6))
        x_old = div(sub(mul(num(d6), _X), num(d4)),
                    add(mul(num(-d5), _X), num(d3)))
        u_coeff_old = num(sign * det / d1)
        four_thirds = PowerU(FOUR_THIRDS)
        return PointTransformation(
            label="G1",
            t_new=add(mul(num(d1), _T), num(d2)),
            x_new=div(add(mul(num(d3), _X), num(d4)), den),
            u_new=mul(mul(num(sign * d1), pow_(den, num(3))), _U),
            t_old=div(sub(_T, num(d2)), num(d1)),
            x_old=x_old,
            u_old=mul(mul(u_coeff_old,
                          pow_(add(mul(num(-d5), _X), num(d3)), num(3))), _U),
            d_rule=CoefficientRule(override=four_thirds.expression()),
            h_rule=CoefficientRule(num(1 / d1), x_old),
            requires_d=four_thirds)

    if family == "G3":
        if len(deltas) != 5:
            raise DeltaConstraintError("G3 takes the five Gsim constants")
        if eq is None:
            raise DeltaConstraintError(
                "G3 reads the constant h and the power exponent from an equation")
        c = spec_shape(eq.h, 11).constant()
        if c is None or c == 0:
            raise ConditionError("G3 requires a nonzero constant h")
        d = spec_shape(eq.D, 11)
        n, power = d.n, PowerU(d.n)
        if not shapes_match(d, power.shape(), FOUR_THIRDS_TOL):
            raise ConditionError("G3 requires a power diffusion D = u^n")
        affine = _affine("G3", deltas)  # the x map of Gsim
        d1, d2, d3, _, d5 = deltas
        try:
            coeff = d3 * d3 / (d1 * d5 ** n)
        except ArithmeticError:  # d1*d5^n under- or overflows
            coeff = math.inf
        if isinstance(coeff, complex):
            raise DeltaConstraintError(
                "d5 must be positive for a fractional exponent")
        if coeff == 0 or not math.isfinite(coeff):  # d3 != 0 by _affine
            raise DeltaConstraintError(
                "D coefficient d3^2/(d1*d5^n) out of float range")
        cn = c * n
        t_core = div(call("exp", mul(num(cn), _T)), num(cn))
        t_arg = div(mul(num(cn), sub(_T, num(d2))), num(d1))
        return affine._replace(
            t_new=add(mul(num(d1), t_core), num(d2)),
            u_new=mul(num(d5), mul(call("exp", mul(num(-c), _T)), _U)),
            t_old=div(call("ln", t_arg), num(cn)),
            u_old=mul(div(_U, num(d5)), pow_(t_arg, num(1.0 / n))),
            d_rule=CoefficientRule(override=mul(num(coeff),
                                                pow_(_U, num(n)))),
            h_rule=CoefficientRule(override=ZERO),
            requires_d=power, requires_h=ConstantH(c))

    raise EquivalenceError(f"unknown group family {family!r}")


# ---------------------------------------------------------------------------
# action on equations and solutions


def _check_condition(T: PointTransformation, eq: FinEquation):
    for name, required, spec in (("D", T.requires_d, eq.D),
                                 ("h", T.requires_h, eq.h)):
        if required is not None and not shapes_match(
                spec_shape(spec, 11), required.shape(), FOUR_THIRDS_TOL):
            raise ConditionError(f"{T.label} requires {name} = "
                                 f"{to_string(required.expression())}")


def _first_match(shape, candidates, free):
    """The first tagged candidate whose shape matches ``shape``, else
    ``free``."""
    return next((spec for spec in candidates
                 if shapes_match(spec.shape(), shape, 1e-9)), free)


def _retag_d(expr: Expression):
    s = fit_d_shape(expr, 13)
    return _first_match(s, (PowerU(s.n), ShiftedPowerU(s.n, 1.0), ExpU()),
                        FreeD(expr))


def _retag_h(expr: Expression):
    if isinstance(expr, Num):
        return ConstantH(expr.value)
    s = fit_h_shape(expr, 13)
    sign = _sign(s.coeff)
    return _first_match(s, (ConstantH(s.coeff), PowerX(s.q, sign), ExpX(sign),
                            H1(s.p, s.q, sign)), FreeH(expr))


def apply_to_equation(T: PointTransformation, eq: FinEquation):
    """Transform an equation; returns the new equation, or an
    :class:`OutsideClassReport` when the image leaves the class."""
    _check_condition(T, eq)
    if T.outside_class is not None:
        return OutsideClassReport(
            label=T.label, target=T.outside_class,
            note="image is not of the form u_t = (D(u) u_x)_x + h(x) u")
    for name, rule in (("d_rule", T.d_rule), ("h_rule", T.h_rule)):
        if rule is None:
            raise EquivalenceError(
                f"no image of the equation under {T.label!r}: it has no "
                f"{name} for its coefficients")
    return FinEquation(*(
        spec if rule.is_identity(spec.var)
        else retag(rule.apply(spec.expression(), spec.var))
        for rule, spec, retag in ((T.d_rule, eq.D, _retag_d),
                                  (T.h_rule, eq.h, _retag_h))))


def push_forward_solution(T: PointTransformation, s: Solution) -> Solution:
    """Express a solution in the new variables via the stored inverse."""
    old_vars = {"t": T.t_old, "x": T.x_old}
    u_of_new = substitute(s.expr, old_vars)
    expr = substitute(T.u_new, {**old_vars, "u": u_of_new})
    note = (s.domain + "; " if s.domain else "") + f"pushed through {T.label}"
    return Solution(expr, s.parameters, note)


def push_forward_field(T: PointTransformation, X: VectorField) -> VectorField:
    """Push a generator forward through the transformation (chain rule)."""
    def act(f: Expression) -> Expression:
        total = add(add(mul(X.tau, differentiate(f, "t")),
                        mul(X.xi, differentiate(f, "x"))),
                    mul(X.eta, differentiate(f, "u")))
        return substitute(total, {"t": T.t_old, "x": T.x_old, "u": T.u_old})

    return VectorField(act(T.t_new), act(T.x_new), act(T.u_new))


# ---------------------------------------------------------------------------
# the named case-to-case maps (their labels: ADDITIONAL_MAP_LABELS, in model)


_INV_SQRT2 = 2.0 ** -0.5


def additional_equivalence(case_from: int, params: dict):
    """Named map identifying one table case with another.

    Returns ``(transformation, (target_case, target_params))``; the map
    that exits the class returns ``(transformation, None)``.
    """
    params = dict(params)
    if case_from == 6:
        p = int(params.get("p", 1))
        q = float(params.get("q", 1.0))
        eps = int(params.get("eps", 1))
        if q == 0:
            raise EquivalenceError("case 6 requires q != 0")
        if p == 1:
            raise ComplexFieldOnlyError(
                "case 6 with p=1 maps to case 4 only over the complex field")
        if p == 0:
            T = make_group_element("G1", (1, 0, 0, 1, 1, 0), sign=1)
            T = T._replace(label="6p0-to-5")
            return T, (5, {"n": FOUR_THIRDS, "eps": eps})
        if p == -1:
            r = _INV_SQRT2
            T = make_group_element("G1", (1, 0, r, -r, r, r), sign=1)
            T = T._replace(label="6pm1-to-4")
            return T, (4, {"n": FOUR_THIRDS, "q": q / 2.0, "eps": eps})
        raise EquivalenceError("case 6 requires p in {-1, 0, 1}")

    if case_from in (10, 11, 12, 13):
        # onto the normal form u^n (case 11) or u^(-4/3) (case 13), h = 0
        target = 13 if case_from in (12, 13) else 11
        if case_from == target:
            alpha = float(params.get("alpha", 0.0))
            if alpha == 0:
                raise NoAdditionalMapError(
                    f"case {case_from} with alpha=0 is already in normal form")
            T = make_group_element("G2", (1, 0, 1, 0, 1, alpha))
            T = T._replace(label=f"{case_from}a-to-{case_from}")
        else:
            eps = int(params.get("eps", 1))
            n = FOUR_THIRDS if case_from == 12 else float(params["n"])
            source = FinEquation(PowerU(n), ConstantH(float(eps)))
            T = make_group_element("G3", (1, 0, 1, 0, 1), eq=source)
            T = T._replace(label=f"{case_from}-to-{target}")
        if target == 13:
            return T, (13, {"alpha": 0.0})
        return T, (11, {"n": float(params["n"]), "alpha": 0.0})

    if case_from == 8:
        eps = int(params.get("eps", 1))
        if eps not in (-1, 1):
            raise EquivalenceError("case 8 requires eps = +-1")
        e_decay = call("exp", mul(num(-eps), _T))
        T = PointTransformation(
            label="case8-out",
            t_new=mul(num(-1.0 / eps), e_decay),
            x_new=_X,
            u_new=mul(e_decay, add(_U, num(1))),
            t_old=mul(num(-1.0 / eps), call("ln", mul(num(-eps), _T))),
            x_old=_X,
            u_old=sub(div(_U, mul(num(-eps), _T)), num(1)),
            requires_d=ReciprocalShift(), requires_h=ConstantH(eps),
            outside_class=f"u_t = (u^-1 u_x)_x - ({eps})")
        return T, None

    raise NoAdditionalMapError(f"no additional map for case {case_from}")


def map_by_label(label: str, params: dict):
    """CLI entry: resolve one of the named map labels."""
    if label not in ADDITIONAL_MAP_LABELS:
        raise NoAdditionalMapError(
            f"unknown map {label!r}; known: {sorted(ADDITIONAL_MAP_LABELS)}")
    case_from, fixed = ADDITIONAL_MAP_LABELS[label]
    for key, value in fixed.items():
        if params.get(key, value) != value:
            raise ConditionError(f"map {label!r} requires {key} = {value}, "
                                 f"got {key} = {params[key]}")
    return additional_equivalence(case_from, {**fixed, **params})
