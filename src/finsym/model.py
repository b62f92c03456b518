"""Core data model for equations u_t = (D(u) u_x)_x + h(x) u.

A coefficient spec is a family of one table with its parameters (or a
free-form expression), so the classifier can branch on structure instead
of re-deriving it.  All values are immutable.  A :class:`FinEquation`
checks its own membership in the class (:func:`validate`) when it is
constructed, so every equation that exists is valid and no function
taking one checks it again.
"""
from __future__ import annotations

import json
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

from .expressions import (
    Expression, Num, _close, add, call, compile_expressions,
    _keep_finite, differentiate, div, equivalent, mul, neg, num, parse, pow_,
    sample_bindings, sample_finite, sub, substitute, sym, to_string, ZERO,
    ONE,
)

__all__ = [
    "PowerU", "ShiftedPowerU", "ExpU", "ReciprocalShift", "FreeD",
    "PowerX", "ExpX", "InverseSquareX", "ConstantH", "H1", "FreeH",
    "DShape", "HShape", "Spec", "FinEquation", "VectorField",
    "Solution", "pde_residual_expression", "pde_residual_grid",
    "validate", "is_four_thirds", "h1_expression",
    "spec_to_json", "spec_from_json", "equation_to_json", "equation_from_json",
    "load_equation_file", "equations_equal", "shapes_match",
    "ModelError", "SpecKindError", "LinearCaseError", "SchemaError",
    "NumericError", "FOUR_THIRDS_TOL",
]

#: n = -4/3 is a structural branch point of the classification table
FOUR_THIRDS = -4.0 / 3.0
#: a float n is -4/3 when within this tolerance relative to 1 + |n| + 4/3,
#: the closeness :func:`shapes_match` applies to shape parameters
FOUR_THIRDS_TOL = 1e-12
#: the named case-to-case maps of :mod:`finsym.equivalence` by label: the
#: table case each takes and the parameters it fixes; kept here so that
#: the CLI offers the labels without importing the maps
ADDITIONAL_MAP_LABELS = {
    "6p0-to-5": (6, {"p": 0}),
    "6pm1-to-4": (6, {"p": -1}),
    "11a-to-11": (11, {}),
    "13a-to-13": (13, {}),
    "10-to-11": (10, {}),
    "12-to-13": (12, {}),
    "case8-out": (8, {}),
}

_T, _X, _U = sym("t"), sym("x"), sym("u")


class ModelError(ValueError):
    pass


class SpecKindError(ModelError):
    pass


class LinearCaseError(ModelError):
    """The diffusion coefficient does not depend on u (linear case)."""


class SchemaError(ModelError):
    pass


class NumericError(RuntimeError):
    """A numerical computation failed (of :mod:`finsym.numeric`, or the
    sampled residual :func:`pde_residual_grid`); defined here so that code
    catching it need not import numpy."""


def is_four_thirds(n: float) -> bool:
    return _close(n, FOUR_THIRDS, FOUR_THIRDS_TOL)


# ---------------------------------------------------------------------------
# records: immutable values with a dataclass's semantics, built as tuples


def _same_class_eq(self, other):
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    # not NotImplemented: a tuple's own == would then compare the items
    return False if isinstance(other, tuple) else NotImplemented


def _record(typename: str, field_names: str, defaults=None) -> type:
    """The namedtuple base of a record class ``typename``.

    A record equals only a record of its own class with equal fields (not
    a plain tuple), hashes as its field tuple, prints as
    ``Name(field=value, ...)`` and, with ``__slots__ = ()`` on the
    subclass, refuses assignment: a frozen dataclass's value semantics,
    without the methods a dataclass generates and compiles as its module
    loads.
    """
    base = namedtuple(typename, field_names, defaults=defaults)
    base.__eq__, base.__ne__ = _same_class_eq, object.__ne__
    base.__hash__ = tuple.__hash__
    return base


# ---------------------------------------------------------------------------
# normalized shapes: the structure the classification table is keyed on


# a dataclass, as HShape: shapes_match reads vars(), and a test reads
# dataclasses.fields
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
# coefficient specs: a tagged family and its parameters, or an expression


class Spec(_record("Spec", "var family params")):
    """A diffusion coefficient D (``var`` "u") or source profile h ("x").

    A tagged spec holds the JSON tag of a family in :data:`_FAMILIES` and
    that family's parameters in order; a free-form spec has the family
    "free" and its expression as the one parameter.  The functions
    ``PowerU`` ... ``FreeH`` make them.  Families keep their tags, so
    ``PowerU(2) != ShiftedPowerU(2, 0)``; :func:`equations_equal` compares
    shapes instead.
    """
    __slots__ = ()

    def expression(self) -> Expression:
        if self.family == "free":
            return self.params[0]
        return _FAMILIES[self.family].build(*self.params)

    def shape(self) -> DShape | HShape:
        """The shape of a tagged family; a free-form spec's is fitted by
        :func:`finsym.classify.spec_shape`."""
        return _FAMILIES[self.family].shape(*self.params)


def _signed(eps: int, body: Expression) -> Expression:
    return body if eps > 0 else neg(body)


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
    return _signed(eps, body)


def _power_rule(n: float, alpha: float = 0):
    if n == 0:
        raise LinearCaseError("power diffusion requires n != 0")
    if alpha not in (0, 1):
        raise SpecKindError("shift alpha must be 0 or 1")


def _sign_rule(*params):
    """eps, the last parameter of power_x, exp_x and h1, is +-1."""
    if params[-1] not in (-1, 1):
        raise SpecKindError("a signed profile requires eps = +-1")


def _h1_rule(p: int, q: float, eps: int):
    if q == 0:
        raise SpecKindError("h1 profile requires q != 0")
    if p not in (-1, 0, 1):
        raise SpecKindError("h1 profile requires p in {-1, 0, 1}")
    _sign_rule(eps)


#: a row of :data:`_FAMILIES`: the variable ("u" for a D family, "x" for an
#: h family), the parameters in order, each with its type (int: a whole
#: number), and functions of the parameters that build the expression,
#: give the shape and raise for parameters outside the family (no rule:
#: every value is in it)
_Family = namedtuple("_Family", "var params build shape rule",
                     defaults=(None,))

#: the tagged families by their JSON "family" tag
_FAMILIES = {
    "power_u": _Family(
        "u", {"n": float}, lambda n: pow_(_U, num(n)),
        lambda n: DShape("power", n=n), _power_rule),
    "shifted_power_u": _Family(
        "u", {"n": float, "alpha": float},
        lambda n, alpha: pow_(add(_U, num(alpha)), num(n)),
        lambda n, alpha: (DShape("power", n=n) if alpha == 0
                          else DShape("shifted", n=n, beta=float(alpha))),
        _power_rule),
    "exp_u": _Family(
        "u", {}, lambda: call("exp", _U), lambda: DShape("exp", k=1.0)),
    "reciprocal_shift": _Family(
        "u", {}, lambda: pow_(add(_U, ONE), num(-1)),
        lambda: DShape("shifted", n=-1.0, beta=1.0)),
    "power_x": _Family(
        "x", {"q": float, "eps": int},
        lambda q, eps: _signed(eps, pow_(_X, num(q))),
        lambda q, eps: (HShape("const", coeff=float(eps)) if q == 0
                        else HShape("power", coeff=float(eps), q=q)),
        _sign_rule),
    "exp_x": _Family(
        "x", {"eps": int}, lambda eps: _signed(eps, call("exp", _X)),
        lambda eps: HShape("exp", coeff=float(eps), k=1.0), _sign_rule),
    "inverse_square_x": _Family(
        "x", {}, lambda: pow_(_X, num(-2)),
        lambda: HShape("power", coeff=1.0, q=-2.0)),
    "constant": _Family(
        "x", {"c": float}, num,
        lambda c: HShape("zero") if c == 0 else HShape("const", coeff=c)),
    "h1": _Family(
        "x", {"p": int, "q": float, "eps": int}, h1_expression,
        lambda p, q, eps: HShape("h1", coeff=float(eps), q=q, p=p),
        _h1_rule),
}


def PowerU(n: float) -> Spec:
    """D = u^n, n != 0."""
    return Spec("u", "power_u", (n,))


def ShiftedPowerU(n: float, alpha: float) -> Spec:
    """D = (u + alpha)^n with alpha in {0, 1}, n != 0."""
    return Spec("u", "shifted_power_u", (n, alpha))


def ExpU() -> Spec:
    """D = e^u."""
    return Spec("u", "exp_u", ())


def ReciprocalShift() -> Spec:
    """D = (u + 1)^(-1)."""
    return Spec("u", "reciprocal_shift", ())


def FreeD(expr: Expression) -> Spec:
    """Free-form D given as an expression in u."""
    return Spec("u", "free", (expr,))


def PowerX(q: float, eps: int) -> Spec:
    """h = eps * x^q with eps = +-1."""
    return Spec("x", "power_x", (q, eps))


def ExpX(eps: int) -> Spec:
    """h = eps * e^x."""
    return Spec("x", "exp_x", (eps,))


def InverseSquareX() -> Spec:
    """h = x^(-2)."""
    return Spec("x", "inverse_square_x", ())


def ConstantH(c: float) -> Spec:
    """h = c, any constant including 0."""
    return Spec("x", "constant", (c,))


def H1(p: int, q: float, eps: int) -> Spec:
    """h = h1(x; p, q, eps), the profile with (x^2+p) h' = q h."""
    return Spec("x", "h1", (p, q, eps))


def FreeH(expr: Expression) -> Spec:
    """Free-form h given as an expression in x."""
    return Spec("x", "free", (expr,))


# ---------------------------------------------------------------------------
# equations, fields, solutions


#: the coefficient trees the jet residuals are built from: D, D_u, D_uu, h,
#: h_x, u_t on solutions, D u_xx + D_u u_x^2 + h u, and the three factors
#: of the prolonged residual that hold no field: h_x u, the factor of eta,
#: -(D_u u_xx + D_uu u_x^2 + h), and 2 D_u
JetPieces = namedtuple("JetPieces",
                       "d d_u d_uu h h_x u_t h_x_u eta_coeff two_d_u")


# a dataclass: callers use dataclasses.replace and fields, and jet is a
# cached_property, which needs an instance __dict__, as _derive_d_u does
@dataclass(frozen=True)
class FinEquation:
    """One member of the class u_t = (D(u) u_x)_x + h(x) u.

    Construction (``dataclasses.replace`` included) runs :func:`validate`
    and raises its exception for a spec outside the class.  ``jet`` holds
    the equation's :data:`JetPieces`, derived the first time it is read and
    kept by this object, so every generator prolonged on it shares them;
    its dD/du is the one a free D's probe in :func:`validate` derived.
    ``==``, ``hash`` and ``repr`` read the two specs only.
    """
    D: Spec
    h: Spec

    def __post_init__(self):
        validate(self)

    def _derive_d_u(self, d: Expression) -> Expression:
        """dD/du of ``d``, this equation's D, derived once and kept by
        this object."""
        d_u = self.__dict__.get("_d_u")
        if d_u is None:
            d_u = self.__dict__["_d_u"] = differentiate(d, "u")
        return d_u

    @cached_property
    def jet(self) -> JetPieces:
        d, h = self.d_expr(), self.h_expr()
        d_u = self._derive_d_u(d)
        d_uu, h_x = differentiate(d_u, "u"), differentiate(h, "x")
        u_x, u_xx = sym("u_x"), sym("u_xx")
        u_t = add(add(mul(d, u_xx), mul(d_u, mul(u_x, u_x))), mul(h, _U))
        return JetPieces(
            d, d_u, d_uu, h, h_x, u_t, mul(h_x, _U),
            neg(add(add(mul(d_u, u_xx), mul(d_uu, mul(u_x, u_x))), h)),
            mul(Num(2.0), d_u))

    def d_expr(self) -> Expression:
        return self.D.expression()

    def h_expr(self) -> Expression:
        return self.h.expression()

    def __str__(self):
        return f"u_t = ({to_string(self.d_expr())} * u_x)_x + ({to_string(self.h_expr())}) * u"


class VectorField(_record("VectorField", "tau xi eta")):
    """Infinitesimal generator tau*d_t + xi*d_x + eta*d_u."""
    __slots__ = ()

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


class Solution(_record("Solution", "expr parameters domain",
                       defaults=((), ""))):
    """A (possibly parametric) solution u(t, x) with a domain note:
    ``parameters`` names its unbound parameters."""
    __slots__ = ()

    def bind(self, **values) -> "Solution":
        unknown = set(values) - set(self.parameters)
        if unknown:
            raise ModelError(f"unknown solution parameters: {sorted(unknown)}")
        remaining = tuple(p for p in self.parameters if p not in values)
        return Solution(substitute(self.expr, values), remaining, self.domain)


def pde_residual_expression(eq: FinEquation, u_expr: Expression) -> Expression:
    """u_t - (D(u) u_x)_x - h u with u replaced by the candidate."""
    u_t = differentiate(u_expr, "t")
    u_x = differentiate(u_expr, "x")
    d_of_u = substitute(eq.d_expr(), {"u": u_expr})
    flux_x = differentiate(mul(d_of_u, u_x), "x")
    return sub(sub(u_t, flux_x), mul(eq.h_expr(), u_expr))


def pde_residual_grid(eq: FinEquation, s: Solution, region, samples: int = 100,
                      seed: int = 42) -> float:
    """Max relative residual of a solution over a sampled (t, x) box: the
    residual of :func:`pde_residual_expression` over 1 + |u_t| + |h u|."""
    import numpy as np

    if s.parameters:
        raise ModelError(
            f"solution has unbound parameters: {list(s.parameters)}")
    (t0, t1), (x0, x1) = region
    at = compile_expressions(pde_residual_expression(eq, s.expr),
                             differentiate(s.expr, "t"),
                             mul(eq.h_expr(), s.expr))

    def residual(bindings):
        r, u_t, hu = at(bindings)
        return r, 1.0 + np.abs(u_t) + np.abs(hu)

    r, scale = sample_finite(residual, ("t", "x"), seed, samples,
                             ranges={"t": (t0, t1), "x": (x0, x1)})
    if r.size == 0:
        raise NumericError("all residual samples were non-finite")
    return float(np.maximum.reduce(np.abs(r) / scale))


# ---------------------------------------------------------------------------
# validation


def _free_symbol_check(expr: Expression, allowed: set, what: str):
    extra = set(expr.free_symbols()) - allowed
    if extra:
        raise SpecKindError(
            f"{what} may only involve {sorted(allowed)}, found {sorted(extra)}")


#: the size of a round of :func:`validate`'s probe points
_PROBE_COUNT = 20
#: :func:`validate`'s probe points: round i is the i-th round of
#: ``_PROBE_COUNT`` points that ``sample_finite(fn, (var,), 0, 20)`` draws
#: for u or for x, whose ranges are both (0.5, 3.0); a probe reaches at
#: most ten, each drawn when first reached, and kept read-only
_PROBE_ROUNDS = []


def _draw_probe_rounds():
    import numpy as np

    rng = np.random.default_rng(0)
    while True:
        points = sample_bindings(("u",), rng, _PROBE_COUNT)["u"]
        points.flags.writeable = False
        yield points


_PROBE_DRAWS = _draw_probe_rounds()  # runs (and imports numpy) when drawn
_PROBE_LOCK = threading.Lock()


def _probe(fn, var: str):
    """:func:`_keep_finite` of ``fn`` on the probe rounds bound to ``var``."""
    def draw(i):
        with _PROBE_LOCK:  # one thread at a time draws, so rounds stay in order
            while len(_PROBE_ROUNDS) <= i:
                _PROBE_ROUNDS.append(next(_PROBE_DRAWS))
        return {var: _PROBE_ROUNDS[i]}

    return _keep_finite(fn, draw, _PROBE_COUNT)


def validate(eq: FinEquation) -> FinEquation:
    """Check kinds, parameter constraints and nonlinearity; return eq.

    Free specs may involve only their own variable.  A free D, or a free h
    with a free symbol, is probed at fixed points: the rounds of 20 that
    ``sample_finite(fn, (var,), 0, 20)`` draws, at most ten, each drawn
    once per process, kept by the same keep-finite rule.  It is refused
    when finite at none of them; a D whose dD/du (kept by ``eq`` for its
    jet) vanishes there is the excluded linear case.  Idempotent;
    :class:`FinEquation` runs it on construction, so callers need not.
    """
    for spec, var, what in ((eq.D, "u", "diffusion"), (eq.h, "x", "source")):
        if not isinstance(spec, Spec) or spec.var != var:
            raise SpecKindError(f"not a {what} spec: {spec!r}")
    for spec in (eq.D, eq.h):
        rule = spec.family != "free" and _FAMILIES[spec.family].rule
        if rule:
            rule(*spec.params)

    if eq.D.family == "free":
        (d,) = eq.D.params
        _free_symbol_check(d, {"u"}, "free D")
        dv, v = _probe(compile_expressions(eq._derive_d_u(d), d), "u")
        if dv.size == 0:
            raise SpecKindError("free D not evaluable on the sampling range")
        scale = 1.0 + float(abs(v).max())
        if float(abs(dv).max()) <= 1e-12 * scale:
            raise LinearCaseError(
                "linear case excluded: D does not depend on u")
    if eq.h.family == "free":
        (h,) = eq.h.params
        _free_symbol_check(h, {"x"}, "free h")
        if h.free_symbols() and _probe(
                compile_expressions(h, h), "x")[0].size == 0:
            raise SpecKindError("free h not evaluable on the sampling range")
    return eq


# ---------------------------------------------------------------------------
# JSON encoding


def _num_out(v: float):
    f = float(v)
    return int(f) if f == int(f) and abs(f) < 1e15 else f


def spec_to_json(spec: Spec) -> dict:
    if not isinstance(spec, Spec):
        raise SchemaError(f"not a coefficient spec: {spec!r}")
    if spec.family == "free":
        return {"expr": to_string(spec.params[0])}
    names = _FAMILIES[spec.family].params
    return {"family": spec.family,
            **{name: _num_out(v) for name, v in zip(names, spec.params)}}


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


def spec_from_json(obj: dict, kind: str) -> Spec:
    """Decode a D ('u') or h ('x') spec; unknown keys and malformed
    parameters are rejected."""
    if not isinstance(obj, dict):
        raise SchemaError("coefficient spec must be an object")
    if "expr" in obj:
        _require_keys(obj, {"expr"}, "free spec")
        if not isinstance(obj["expr"], str):
            raise SchemaError("free spec: 'expr' must be a string")
        return Spec(kind, "free", (parse(obj["expr"]),))
    family = obj.get("family")
    row = _FAMILIES.get(family) if isinstance(family, str) else None
    if row is None or row.var != kind:
        raise SchemaError(f"unknown {kind}-spec family: {family!r}")
    _require_keys(obj, {"family", *row.params}, family)
    return Spec(kind, family, tuple(
        _number(obj[name], f"{family}.{name}", number is int)
        for name, number in row.params.items()))


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
