"""Core data model for equations u_t = (D(u) u_x)_x + h(x) u.

Coefficient specs are tagged families (plus free-form expressions), so the
classifier can branch on structure instead of re-deriving it.  All values
are immutable.  A :class:`FinEquation` checks its own membership in the
class (:func:`validate`) when it is constructed, so every equation that
exists is valid and no function taking one checks it again.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .expressions import (
    Expression, Num, _close, add, call, compile_expressions,
    differentiate, div, equivalent, mul, neg, num, parse, pow_,
    sample_finite, sub, substitute, sym, to_string, ZERO, ONE,
)

__all__ = [
    "PowerU", "ShiftedPowerU", "ExpU", "ReciprocalShift", "FreeD",
    "PowerX", "ExpX", "InverseSquareX", "ConstantH", "H1", "FreeH",
    "DShape", "HShape", "DSpec", "HSpec", "FinEquation", "VectorField",
    "Solution",
    "validate", "is_four_thirds", "h1_expression",
    "spec_to_json", "spec_from_json", "equation_to_json", "equation_from_json",
    "load_equation_file", "equations_equal", "shapes_match",
    "ModelError", "SpecKindError", "LinearCaseError", "SchemaError",
    "FOUR_THIRDS_TOL",
]

#: n = -4/3 is a structural branch point of the classification table
FOUR_THIRDS = -4.0 / 3.0
#: a float n is -4/3 when within this tolerance relative to 1 + |n| + 4/3,
#: the closeness :func:`shapes_match` applies to shape parameters
FOUR_THIRDS_TOL = 1e-12

_T, _X, _U = sym("t"), sym("x"), sym("u")


class ModelError(ValueError):
    pass


class SpecKindError(ModelError):
    pass


class LinearCaseError(ModelError):
    """The diffusion coefficient does not depend on u (linear case)."""


class SchemaError(ModelError):
    pass


def is_four_thirds(n: float) -> bool:
    return _close(n, FOUR_THIRDS, FOUR_THIRDS_TOL)


# ---------------------------------------------------------------------------
# normalized shapes: the structure the classification table is keyed on


@dataclass(frozen=True)
class DShape:
    kind: str              # "power" | "shifted" | "exp" | "arbitrary"
    coeff: float = 1.0
    n: float = 0.0
    beta: float = 0.0
    k: float = 1.0


@dataclass(frozen=True)
class HShape:
    kind: str              # "zero" | "const" | "power" | "exp" | "h1" | "arbitrary"
    coeff: float = 0.0
    q: float = 0.0
    k: float = 1.0
    p: int = 0
    shift: float = 0.0

    def constant(self) -> float | None:
        """The value of a constant profile (0 included); None when h varies."""
        return self.coeff if self.kind in ("zero", "const") else None


# ---------------------------------------------------------------------------
# diffusion coefficient specs (functions of u)


@dataclass(frozen=True)
class PowerU:
    """D = u^n, n != 0."""
    n: float

    family = "power_u"

    def expression(self) -> Expression:
        return pow_(_U, num(self.n))

    def shape(self) -> DShape:
        return DShape("power", n=self.n)


@dataclass(frozen=True)
class ShiftedPowerU:
    """D = (u + alpha)^n with alpha in {0, 1}, n != 0."""
    n: float
    alpha: float

    family = "shifted_power_u"

    def expression(self) -> Expression:
        return pow_(add(_U, num(self.alpha)), num(self.n))

    def shape(self) -> DShape:
        if self.alpha == 0:
            return DShape("power", n=self.n)
        return DShape("shifted", n=self.n, beta=float(self.alpha))


@dataclass(frozen=True)
class ExpU:
    """D = e^u."""

    family = "exp_u"

    def expression(self) -> Expression:
        return call("exp", _U)

    def shape(self) -> DShape:
        return DShape("exp", k=1.0)


@dataclass(frozen=True)
class ReciprocalShift:
    """D = (u + 1)^(-1)."""

    family = "reciprocal_shift"

    def expression(self) -> Expression:
        return pow_(add(_U, ONE), num(-1))

    def shape(self) -> DShape:
        return DShape("shifted", n=-1.0, beta=1.0)


@dataclass(frozen=True)
class FreeD:
    """Free-form D given as an expression in u."""
    expr: Expression

    family = "free"

    def expression(self) -> Expression:
        return self.expr


# ---------------------------------------------------------------------------
# source profile specs (functions of x)


@dataclass(frozen=True)
class PowerX:
    """h = eps * x^q with eps = +-1."""
    q: float
    eps: int

    family = "power_x"

    def expression(self) -> Expression:
        body = pow_(_X, num(self.q))
        return body if self.eps > 0 else neg(body)

    def shape(self) -> HShape:
        if self.q == 0:
            return HShape("const", coeff=float(self.eps))
        return HShape("power", coeff=float(self.eps), q=self.q)


@dataclass(frozen=True)
class ExpX:
    """h = eps * e^x."""
    eps: int

    family = "exp_x"

    def expression(self) -> Expression:
        body = call("exp", _X)
        return body if self.eps > 0 else neg(body)

    def shape(self) -> HShape:
        return HShape("exp", coeff=float(self.eps), k=1.0)


@dataclass(frozen=True)
class InverseSquareX:
    """h = x^(-2)."""

    family = "inverse_square_x"

    def expression(self) -> Expression:
        return pow_(_X, num(-2))

    def shape(self) -> HShape:
        return HShape("power", coeff=1.0, q=-2.0)


@dataclass(frozen=True)
class ConstantH:
    """h = c, any constant including 0."""
    c: float

    family = "constant"

    def expression(self) -> Expression:
        return num(self.c)

    def shape(self) -> HShape:
        return HShape("zero") if self.c == 0 else HShape("const", coeff=self.c)


def h1_expression(p: int, q: float, eps: int, var: Expression | None = None
                  ) -> Expression:
    """Closed form of the profile solving (x^2 + p) h' = q h, |h(.)| -> eps-signed.

    p = -1: eps*|(x-1)/(x+1)|^(q/2);  p = 0: eps*exp(-q/x);
    p = 1:  eps*exp(q*arctan(x)).
    """
    x = var if var is not None else _X
    if p == -1:
        body = pow_(call("abs", div(sub(x, ONE), add(x, ONE))), num(q / 2.0))
    elif p == 0:
        body = call("exp", div(num(-q), x))
    elif p == 1:
        body = call("exp", mul(num(q), call("arctan", x)))
    else:
        raise ModelError(f"p must be in {{-1, 0, 1}}, got {p}")
    return body if eps > 0 else neg(body)


@dataclass(frozen=True)
class H1:
    """h = h1(x; p, q, eps), the profile with (x^2+p) h' = q h."""
    p: int
    q: float
    eps: int

    family = "h1"

    def expression(self) -> Expression:
        return h1_expression(self.p, self.q, self.eps)

    def shape(self) -> HShape:
        return HShape("h1", coeff=float(self.eps), q=self.q, p=self.p)


@dataclass(frozen=True)
class FreeH:
    """Free-form h given as an expression in x."""
    expr: Expression

    family = "free"

    def expression(self) -> Expression:
        return self.expr


DSpec = Union[PowerU, ShiftedPowerU, ExpU, ReciprocalShift, FreeD]
HSpec = Union[PowerX, ExpX, InverseSquareX, ConstantH, H1, FreeH]

#: the tagged families of D ('u') and h ('x') by their JSON "family" tag
_FAMILIES = {
    "u": {c.family: c for c in (PowerU, ShiftedPowerU, ExpU, ReciprocalShift)},
    "x": {c.family: c for c in (PowerX, ExpX, InverseSquareX, ConstantH, H1)},
}
_FREE = {"u": FreeD, "x": FreeH}
_D_KINDS = (*_FAMILIES["u"].values(), FreeD)
_H_KINDS = (*_FAMILIES["x"].values(), FreeH)


# ---------------------------------------------------------------------------
# equations, fields, solutions


@dataclass(frozen=True)
class FinEquation:
    """One member of the class u_t = (D(u) u_x)_x + h(x) u.

    Construction (``dataclasses.replace`` included) runs :func:`validate`
    and raises its exception for a spec outside the class.
    """
    D: DSpec
    h: HSpec

    def __post_init__(self):
        validate(self)

    def d_expr(self) -> Expression:
        return self.D.expression()

    def h_expr(self) -> Expression:
        return self.h.expression()

    def __str__(self):
        return f"u_t = ({to_string(self.d_expr())} * u_x)_x + ({to_string(self.h_expr())}) * u"


@dataclass(frozen=True)
class VectorField:
    """Infinitesimal generator tau*d_t + xi*d_x + eta*d_u."""
    tau: Expression
    xi: Expression
    eta: Expression

    @classmethod
    def parse_triple(cls, triple: str) -> "VectorField":
        parts = triple.split(";")
        if len(parts) != 3:
            raise ModelError(
                "vector field must be three ';'-separated expressions")
        return cls(*(parse(p.strip()) for p in parts))

    def to_string(self) -> str:
        parts = []
        for coeff, basis in ((self.tau, "d_t"), (self.xi, "d_x"),
                             (self.eta, "d_u")):
            if coeff == ZERO:
                continue
            if coeff == ONE:
                term = basis
            elif coeff == Num(-1.0):
                term = "-" + basis
            else:
                s = to_string(coeff)
                # parenthesize anything that is not a single factor
                if any(op in s[1:] for op in "+-"):
                    s = "(" + s + ")"
                term = f"{s}*{basis}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts) if parts else "0"

    def __str__(self):
        return self.to_string()


D_T = VectorField(ONE, ZERO, ZERO)
D_X = VectorField(ZERO, ONE, ZERO)


@dataclass(frozen=True)
class Solution:
    """A (possibly parametric) solution u(t, x) with a domain note."""
    expr: Expression
    parameters: tuple[str, ...] = ()
    domain: str = ""

    def bind(self, **values) -> "Solution":
        unknown = set(values) - set(self.parameters)
        if unknown:
            raise ModelError(f"unknown solution parameters: {sorted(unknown)}")
        remaining = tuple(p for p in self.parameters if p not in values)
        return Solution(substitute(self.expr, values), remaining, self.domain)


# ---------------------------------------------------------------------------
# validation


def _free_symbol_check(expr: Expression, allowed: set, what: str):
    extra = set(expr.free_symbols()) - allowed
    if extra:
        raise SpecKindError(
            f"{what} may only involve {sorted(allowed)}, found {sorted(extra)}")


def validate(eq: FinEquation) -> FinEquation:
    """Check kinds, parameter constraints and nonlinearity; return eq.

    Free D specs are tested for constancy by sampling dD/du at 20 points
    drawn at seed 0; a constant D means the excluded linear case.  Free
    specs may involve only their own variable.  Idempotent;
    :class:`FinEquation` runs it on construction, so callers need not.
    """
    if not isinstance(eq.D, _D_KINDS):
        raise SpecKindError(f"not a diffusion spec: {eq.D!r}")
    if not isinstance(eq.h, _H_KINDS):
        raise SpecKindError(f"not a source spec: {eq.h!r}")

    if isinstance(eq.D, (PowerU, ShiftedPowerU)) and eq.D.n == 0:
        raise LinearCaseError("power diffusion requires n != 0")
    if isinstance(eq.D, ShiftedPowerU) and eq.D.alpha not in (0.0, 1.0, 0, 1):
        raise SpecKindError("shift alpha must be 0 or 1")
    if isinstance(eq.h, H1):
        if eq.h.q == 0:
            raise SpecKindError("h1 profile requires q != 0")
        if eq.h.p not in (-1, 0, 1):
            raise SpecKindError("h1 profile requires p in {-1, 0, 1}")
        if eq.h.eps not in (-1, 1):
            raise SpecKindError("h1 profile requires eps = +-1")
    if isinstance(eq.h, (PowerX, ExpX)) and eq.h.eps not in (-1, 1):
        raise SpecKindError("eps must be +-1")

    if isinstance(eq.D, FreeD):
        _free_symbol_check(eq.D.expr, {"u"}, "free D")
        slope_and_value = compile_expressions(
            differentiate(eq.D.expr, "u"), eq.D.expr)
        dv, v = sample_finite(slope_and_value, ("u",), 0, 20, need=20,
                              rounds=1)
        if dv.size == 0:
            raise SpecKindError("free D not evaluable on the sampling range")
        scale = 1.0 + float(np.max(np.abs(v)))
        if float(np.max(np.abs(dv))) <= 1e-12 * scale:
            raise LinearCaseError(
                "linear case excluded: D does not depend on u")
    if isinstance(eq.h, FreeH):
        _free_symbol_check(eq.h.expr, {"x"}, "free h")
    return eq


# ---------------------------------------------------------------------------
# JSON encoding


def _num_out(v: float):
    f = float(v)
    return int(f) if f == int(f) and abs(f) < 1e15 else f


def spec_to_json(spec) -> dict:
    if isinstance(spec, (FreeD, FreeH)):
        return {"expr": to_string(spec.expr)}
    if not isinstance(spec, _D_KINDS + _H_KINDS):
        raise SchemaError(f"not a coefficient spec: {spec!r}")
    return {"family": spec.family,
            **{name: _num_out(v) for name, v in vars(spec).items()}}


def _require_keys(obj: dict, required: set, what: str):
    keys = set(obj)
    if keys != required:
        raise SchemaError(f"{what}: expected keys {sorted(required)}, "
                          f"got {sorted(keys)}")


def _number(value, name: str, integral: bool = False):
    """A parameter read from JSON: a finite number that is not a bool, and
    a whole number when ``integral``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
            or integral and value != int(value)):
        expected = "an integer" if integral else "a finite number"
        raise SchemaError(f"{name} must be {expected}, got {value!r}")
    return int(value) if integral else float(value)


def spec_from_json(obj: dict, kind: str):
    """Decode a D ('u') or h ('x') spec; unknown keys and malformed
    parameters are rejected."""
    if not isinstance(obj, dict):
        raise SchemaError("coefficient spec must be an object")
    if "expr" in obj:
        _require_keys(obj, {"expr"}, "free spec")
        if not isinstance(obj["expr"], str):
            raise SchemaError("free spec: 'expr' must be a string")
        return _FREE[kind](parse(obj["expr"]))
    family = obj.get("family")
    cls = _FAMILIES[kind].get(family) if isinstance(family, str) else None
    if cls is None:
        raise SchemaError(f"unknown {kind}-spec family: {family!r}")
    params = fields(cls)
    _require_keys(obj, {"family", *(f.name for f in params)}, family)
    return cls(*(_number(obj[f.name], f"{family}.{f.name}", f.type == "int")
                 for f in params))


def equation_to_json(eq: FinEquation) -> dict:
    return {"D": spec_to_json(eq.D), "h": spec_to_json(eq.h)}


def equation_from_json(obj: dict) -> FinEquation:
    if not isinstance(obj, dict):
        raise SchemaError("equation document must be an object")
    extra = set(obj) - {"D", "h", "params"}
    if extra:
        raise SchemaError(f"unknown keys in equation document: {sorted(extra)}")
    if "D" not in obj or "h" not in obj:
        raise SchemaError("equation document requires 'D' and 'h'")
    return FinEquation(spec_from_json(obj["D"], "u"),
                       spec_from_json(obj["h"], "x"))


def load_equation_file(path: str) -> tuple[FinEquation, dict]:
    """Read an equation JSON file; returns (equation, extra params)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed JSON: {exc}") from exc
    params = obj.get("params", {}) if isinstance(obj, dict) else {}
    if params is not None and not isinstance(params, dict):
        raise SchemaError("'params' must be an object")
    for key, value in (params or {}).items():
        _number(value, f"params.{key}")
    return equation_from_json(obj), dict(params or {})


# ---------------------------------------------------------------------------
# equality up to representation


def shapes_match(a: DShape | HShape, b: DShape | HShape, tol: float) -> bool:
    """Same kind, and every parameter equal within ``tol`` relative to
    1 + |a| + |b|."""
    kind_a, *values_a = vars(a).values()
    kind_b, *values_b = vars(b).values()
    return kind_a == kind_b and all(
        _close(x, y, tol) for x, y in zip(values_a, values_b))


def _specs_equal(a, b, tol: float, seed: int, ranges=None) -> bool:
    if "free" in (a.family, b.family):
        return equivalent(a.expression(), b.expression(), seed=seed, tol=tol,
                          ranges=ranges)
    return shapes_match(a.shape(), b.shape(), tol)


def equations_equal(a: FinEquation, b: FinEquation, tol: float = 1e-9,
                    ranges=None) -> bool:
    """Equality of equations: matching shapes of tagged coefficients, with
    free-form coefficients compared by randomized sampling (seeds 7 for D
    and 8 for h)."""
    return (_specs_equal(a.D, b.D, tol, 7, ranges)
            and _specs_equal(a.h, b.h, tol, 8, ranges))
