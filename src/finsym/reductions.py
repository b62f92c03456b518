"""Similarity reductions and exact solutions for the structured cases.

Cases 4, 5, 6 each carry a two-dimensional symmetry algebra; reductions
come from the subalgebras <X1>, <X2> and <X1, X2>.  The two-dimensional
one collapses the equation to an algebraic condition in a constant C;
the one-dimensional ones give ODEs in phi(omega).  Cases 4 and 5 are
power diffusion u^n with source eps*P(x), P = x^q or e^x, and share one
builder parametrized by the source profile.

The consistency oracle substitutes random positive cubics for phi:
the PDE residual of the ansatz then equals a fixed multiple of the
reduced-equation residual, with the multiplier constant along a suitable
coordinate slice (and independent of the test function everywhere).
One kernel, ``_ratios``, computes the residual ratios for this check and
for the first-order form of 6.1, and one rule admits a ratio: both
residuals finite and the reduced one farther than 1e-12 from 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import classify
from .expressions import (
    Expression, add, call, compile_expressions, differentiate, div, evaluate,
    mul, neg, num, pow_, sub, substitute, sym, to_string,
)
from .model import (
    FOUR_THIRDS, ExpX, FinEquation, FreeH, H1, ModelError, PowerU, PowerX,
    Solution, VectorField, h1_expression,
)
from .numeric import _bracketed_root, pde_residual_expression

__all__ = [
    "Reduction", "ReductionReport", "OrderReduction",
    "build_reduction", "exact_solution", "verify_reduction",
    "order_reduce_61", "check_order_reduction_61", "solve_algebraic",
    "ReductionError", "RealityError",
]

_T, _X = sym("t"), sym("x")
_W, _PHI = sym("w"), sym("phi")
_PHI_W, _PHI_WW = sym("phi_w"), sym("phi_ww")
_C = sym("C")


class ReductionError(ModelError):
    pass


class RealityError(ReductionError):
    """A closed form would be complex for the given parameter signs."""


@dataclass(frozen=True)
class Reduction:
    """An invariant ansatz together with its reduced equation."""
    label: str
    case: int
    subalgebra: str
    ansatz: Expression                  # u in terms of (t, x, phi)
    omega: Expression | None            # similarity variable omega(t, x)
    reduced: Expression | None          # residual in (w, phi, phi_w, phi_ww)
    algebraic: Expression | None        # residual in C for the 2d subalgebra
    generators: tuple[VectorField, ...]
    params: dict
    slice_var: str = "x"                # coordinate along which the
    slice_range: tuple = (0.5, 3.0)     # reduction multiplier is constant
    anchor: tuple = ("t", 1.0)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "case": self.case,
            "subalgebra": self.subalgebra,
            "ansatz": to_string(self.ansatz),
            "omega": to_string(self.omega) if self.omega is not None else None,
            "reduced": to_string(self.reduced) if self.reduced is not None else None,
            "algebraic": to_string(self.algebraic) if self.algebraic is not None else None,
            "params": self.params,
        }


@dataclass(frozen=True)
class ReductionReport:
    label: str
    passed: bool
    deviation: float
    multiplier: float
    note: str | None = None


def _require(cond, message):
    if not cond:
        raise ReductionError(message)


def _generators(case: int, eq: FinEquation) -> tuple[VectorField, ...]:
    """The symmetry basis of the case's canonical equation ``eq``, which
    the table must put in ``case``."""
    result = classify(eq)
    if result.case != case:
        raise ReductionError(
            f"{eq} is case {result.case} of the table, not case {case}")
    return result.basis


def _power_lead(case: int, n: float, q: float | None) -> float:
    """The coefficient of C^(n+1) in the algebraic reduction of case 4
    (source x^q) or case 5 (source e^x)."""
    return (q + 2.0) * (n * q + n + q + 2.0) if case == 4 else n + 1.0


def build_reduction(case: int, subalgebra: str, params: dict,
                    negative_time: bool = False) -> Reduction:
    """Construct the reduction for one case and subalgebra.

    ``subalgebra`` is "0" (both generators), "1" (time translation) or
    "2" (the scaling generator).  For the time-dependent ansatzes the
    t < 0 branch is selected with ``negative_time``.
    """
    sub_key = str(subalgebra)
    if case in (4, 5):
        n = float(params["n"])
        q = float(params["q"]) if case == 4 else None
        eps = int(params["eps"])
        _require(n != 0, f"case {case} requires n != 0")
        if case == 4:
            base_par, source = {"n": n, "q": q, "eps": eps}, PowerX(q, eps)
        else:
            base_par, source = {"n": n, "eps": eps}, ExpX(eps)
        gens = _generators(case, FinEquation(PowerU(n), source))
    elif case == 6:
        p, q, eps = int(params["p"]), float(params["q"]), int(params["eps"])
        _require(q != 0, "case 6 requires q != 0")
        _require(p in (-1, 0, 1), "case 6 requires p in {-1, 0, 1}")
        base_par = {"p": p, "q": q, "eps": eps}
        gens = _generators(6, FinEquation(PowerU(FOUR_THIRDS), H1(p, q, eps)))
    else:
        raise ReductionError(f"no reduction catalog for case {case}")
    if sub_key not in ("0", "1", "2"):
        raise ReductionError(f"unknown subalgebra {subalgebra!r}")

    omega = reduced = algebraic = None
    slice_var, slice_range, anchor = "x", (0.5, 3.0), ("t", 1.0)
    if case == 6:
        x_sq_p = add(pow_(_X, num(2)), num(p))
        h1_x = h1_expression(p, q, eps)
        if sub_key == "0":
            if eps != 1:
                raise RealityError(
                    "the 2d-subalgebra ansatz takes (h1)^(-3/4); "
                    "it is real only for eps = +1")
            ansatz = mul(_C, mul(pow_(x_sq_p, num(-1.5)),
                                 pow_(h1_x, num(-0.75))))
            algebraic = sub(pow_(_C, num(4.0 / 3.0)),
                            num(3.0 / 16.0 * (q * q + 16.0 * p)))
        elif sub_key == "1":
            ansatz, omega = pow_(_PHI, num(-3)), _X
            h1_w = h1_expression(p, q, eps, var=_W)
            reduced = sub(mul(num(3), _PHI_WW),
                          mul(h1_w, pow_(_PHI, num(-3))))
            slice_range = (1.3, 3.0) if p == -1 else (0.5, 3.0)
        else:
            if eps != 1:
                raise RealityError(
                    "the scaling-subalgebra ansatz takes (h1)^(1/4); "
                    "it is real only for eps = +1")
            ansatz = pow_(mul(mul(pow_(x_sq_p, num(0.5)),
                                  pow_(h1_x, num(0.25))), _PHI), num(-3))
            omega = mul(_T, h1_x)
            reduced = add(
                add(mul(num(3.0 * q * q), mul(pow_(_W, num(2)), _PHI_WW)),
                    mul(num(4.5 * q * q), mul(_W, _PHI_W))),
                add(neg(mul(num(3), mul(pow_(_PHI, num(-4)), _PHI_W))),
                    sub(mul(num(3.0 / 16.0 * (q * q + 16.0 * p)), _PHI),
                        mul(num(eps), pow_(_PHI, num(-3))))))
            slice_var, slice_range = "t", (0.2, 2.0)
            anchor = ("x", 2.0 if p == -1 else 1.7)
    else:
        # power diffusion u^n with source eps*P: P = x^q (case 4), e^x (case 5)
        def profile(v):
            return pow_(v, num(q)) if case == 4 else call("exp", v)

        if sub_key == "0":
            x_part = (pow_(_X, num((q + 2.0) / n)) if case == 4
                      else call("exp", div(_X, num(n))))
            ansatz = mul(_C, x_part)
            algebraic = add(mul(num(_power_lead(case, n, q)),
                                pow_(_C, num(n + 1.0))),
                            mul(num(eps * n * n), _C))
        elif sub_key == "1":
            omega = _X
            if abs(n + 1.0) <= 1e-12:
                ansatz = call("exp", _PHI)
                source = (call("exp", add(_PHI, _W)) if case == 5
                          else mul(profile(_W), ansatz))
                reduced = add(_PHI_WW, mul(num(eps), source))
            else:
                ansatz = pow_(_PHI, num(1.0 / (n + 1.0)))
                reduced = add(_PHI_WW, mul(num(eps * (n + 1.0)),
                                           mul(profile(_W), ansatz)))
        else:
            epsp = -1.0 if negative_time else 1.0
            if case == 4:
                a = -(q + 2.0) / (n * q)
                omega = mul(pow_(call("abs", _T), num(1.0 / q)), _X)
                drift = mul(num(epsp / q), mul(_W, _PHI_W))
            else:
                a = -1.0 / n
                omega = add(_X, call("ln", call("abs", _T)))
                drift = mul(num(epsp), _PHI_W)
            ansatz = mul(pow_(call("abs", _T), num(a)), _PHI)
            reduced = add(
                add(mul(num(n), mul(pow_(_PHI, num(n - 1.0)),
                                    mul(_PHI_W, _PHI_W))),
                    mul(pow_(_PHI, num(n)), _PHI_WW)),
                add(mul(num(eps), mul(profile(_W), _PHI)),
                    sub(mul(num(-epsp * a), _PHI), drift)))
            anchor = ("t", -1.3 if negative_time else 1.3)
    return Reduction(f"{case}.{sub_key}", case, sub_key, ansatz, omega,
                     reduced, algebraic, gens, base_par, slice_var,
                     slice_range, anchor)


# ---------------------------------------------------------------------------
# exact solutions


def _real_power(base: float, expo: float, what: str) -> float:
    if base > 0:
        return float(base ** expo)
    if abs(expo - round(expo)) <= 1e-9:
        return float(np.float64(base) ** np.float64(round(expo)))
    raise RealityError(
        f"{what}: base {base:.6g} is negative with non-integer exponent "
        f"{expo:.6g}; no real solution for this sign pattern")


def exact_solution(case, params: dict, branch: int = 1) -> Solution:
    """Closed-form solution of the given case at bound parameters.

    ``case`` is 4, 5, 6 or "nonclassical".  Reality conditions on the
    parameter signs are enforced and reported when violated.  For cases
    4, 5 and 6 the solution is the ansatz of subalgebra "0" with C bound
    to the closed-form root of its algebraic reduction; the parameters
    and their checks are those of :func:`build_reduction`.
    """
    if case == "nonclassical":
        s = Solution(mul(_C, call("exp", mul(_T, _X))), ("C",),
                     "solves u_t = (u^(-1) u_x)_x + x u for any C != 0")
        return s.bind(C=float(params["C"])) if "C" in params else s
    if case not in (4, 5, 6):
        raise ReductionError(f"no exact solution catalog for case {case!r}")
    r = build_reduction(case, "0", params)
    par = r.params
    if case in (4, 5):
        n, eps = par["n"], par["eps"]
        lead = _power_lead(case, n, par.get("q"))
        _require(lead != 0, "case 4 solution requires (q+2)(nq+n+q+2) != 0"
                 if case == 4 else "case 5 solution requires n != -1")
        c = _real_power(-lead / (eps * n * n), -1.0 / n,
                        f"case {case} amplitude")
        domain = "x > 0" if case == 4 else "all (t, x)"
    else:
        p, q = par["p"], par["q"]
        disc = q * q + 16.0 * p
        if disc <= 0:
            raise RealityError(
                f"case 6 solution requires q^2 + 16 p > 0, got {disc:.6g}")
        c = branch * (3.0 ** 0.75 / 8.0) * disc ** 0.75
        domain = "x^2 + p > 0" + ("; x > 1" if p == -1 else "")
    return Solution(substitute(r.ansatz, {"C": c}), (), domain)


def nonclassical_equation() -> FinEquation:
    """The equation carrying the conditional-symmetry example."""
    return FinEquation(PowerU(-1.0), FreeH(_X))


# ---------------------------------------------------------------------------
# consistency oracle


#: the oracle's test function: a cubic in w whose coefficients c0..c3 are
#: bound per draw, so its residuals are built and compiled once
_CUBIC = add(add(add(sym("c0"), mul(sym("c1"), _W)),
                 mul(sym("c2"), pow_(_W, num(2)))),
             mul(sym("c3"), pow_(_W, num(3))))
_CUBIC_TAPE = compile_expressions(_CUBIC)


def _cubic_draw(rng, lo: float, hi: float) -> dict:
    """Random coefficients of :data:`_CUBIC`, the constant one shifted so
    the cubic's minimum on [lo, hi] is >= 0.5."""
    draw = dict(zip(("c0", "c1", "c2", "c3"), rng.uniform(-1.0, 1.0, size=4)))
    (vals,) = _CUBIC_TAPE({"w": np.linspace(lo, hi, 201), **draw})
    shift = 0.5 - float(np.min(vals))
    if shift > 0:
        draw["c0"] += shift
    return draw


def _jet(phi: Expression) -> dict:
    """phi, phi_w and phi_ww of a test function of w."""
    phi_w = differentiate(phi, "w")
    return {"phi": phi, "phi_w": phi_w, "phi_ww": differentiate(phi_w, "w")}


def _oracle_residuals(eq: FinEquation, r: Reduction, phi: Expression
                      ) -> tuple[Expression, Expression]:
    """The PDE residual of the ansatz at the test function ``phi`` of w,
    in (t, x), and the reduced residual at ``phi``, in w."""
    u_test = substitute(r.ansatz, {"phi": substitute(phi, {"w": r.omega})})
    return (pde_residual_expression(eq, u_test),
            substitute(r.reduced, _jet(phi)))


def _ratios(residuals, points: dict, rng, lo: float, hi: float,
            draws: int) -> np.ndarray:
    """The oracle's kernel: the (draws, N) ratios of a residual pair at
    ``draws`` cubics from :func:`_cubic_draw` on [lo, hi], bound as columns,
    and the N ``points``, in one call of ``residuals``.  An entry is NaN
    where either residual is not finite or the second is within 1e-12 of 0.
    """
    cubics = [_cubic_draw(rng, lo, hi) for _ in range(draws)]
    columns = {c: np.array([[d[c]] for d in cubics]) for c in cubics[0]}
    top, bottom = residuals({**points, **columns})
    ok = np.isfinite(top) & np.isfinite(bottom) & (np.abs(bottom) > 1e-12)
    return np.divide(top, bottom, out=np.full(ok.shape, np.nan), where=ok)


def _ratio_spread(ratios: np.ndarray, min_count: int) -> tuple[float, float]:
    """The median of the admissible (non-NaN) ``ratios``, and their largest
    distance from it relative to it; fewer than ``min_count`` admissible
    ratios raise :class:`ReductionError`."""
    kept = ratios[~np.isnan(ratios)]
    if kept.size < min_count:
        raise ReductionError(
            f"{kept.size} of {ratios.size} samples admissible, {min_count} "
            "needed: the residuals are not finite or the reduced one is 0")
    ref = float(np.median(kept))
    return ref, float(np.max(np.abs(kept - ref))) / max(abs(ref), 1e-300)


def verify_reduction(eq: FinEquation, r: Reduction, seed: int = 42,
                     tol: float = 1e-8) -> ReductionReport:
    """Ratio-constancy check of a phi-reduction against the PDE.

    Three random positive cubics stand in for phi.  All residual ratios,
    across 20 sample points on the reduction's constant-multiplier slice
    and across test functions, must agree with a single constant; at
    least half of them must be admissible.
    """
    n_points, draws = 20, 3
    if r.reduced is None:
        raise ReductionError(
            "algebraic reduction: solve it and substitute instead")
    rng = np.random.default_rng(seed)
    along = {r.slice_var: rng.uniform(*r.slice_range, size=n_points),
             r.anchor[0]: np.full(n_points, r.anchor[1])}
    ws = evaluate(r.omega, along)
    residuals = compile_expressions(*_oracle_residuals(eq, r, _CUBIC))
    ratios = _ratios(residuals, {**along, "w": ws}, rng,
                     float(np.min(ws)), float(np.max(ws)), draws)
    ref, deviation = _ratio_spread(ratios, n_points * draws // 2)
    if ref == 0 or not np.isfinite(ref):
        return ReductionReport(r.label, False, float("inf"), ref,
                               "degenerate multiplier")
    passed = bool(deviation <= tol)
    note = None
    if not passed and r.label == "6.2":
        note = ("reduced equation 6.2 failed the ratio test as printed; "
                "flagging instead of altering it")
    return ReductionReport(r.label, passed, deviation, ref, note)


# ---------------------------------------------------------------------------
# order reduction of 6.1


@dataclass(frozen=True)
class OrderReduction:
    """First-order form of the stationary case-6 reduction."""
    y: Expression          # y(w, phi)
    psi: Expression        # psi(w, phi, phi_w)
    ode: Expression        # residual in (y, psi, psi_y)
    params: dict


def order_reduce_61(p: int, q: float, eps: int = 1) -> OrderReduction:
    """Variables (y, psi) lowering 6.1 to a first-order ODE.

    The first-order equation is returned for either sign; note the weight
    (w^2+p)^(-1/2) (h1)^(-1/4) only takes real values for eps = +1, so the
    numeric consistency check is restricted to that sign.
    """
    if p not in (-1, 0, 1):
        raise ReductionError("p must be in {-1, 0, 1}")
    if q == 0:
        raise ReductionError("q must be nonzero")
    w_sq_p = add(pow_(_W, num(2)), num(p))
    weight = mul(pow_(w_sq_p, num(-0.5)),
                 pow_(h1_expression(p, q, eps, var=_W), num(-0.25)))
    y = mul(weight, _PHI)
    psi = mul(weight, sub(mul(w_sq_p, _PHI_W), mul(_W, _PHI)))
    y_s, psi_s, psi_y = sym("y"), sym("psi"), sym("psi_y")
    ode = sub(add(mul(sub(mul(num(4), psi_s), mul(num(q), y_s)), psi_y),
                  add(mul(num(q), psi_s), mul(num(4.0 * p), y_s))),
              mul(num(4.0 / 3.0 * eps), pow_(y_s, num(-3))))
    return OrderReduction(y, psi, ode, {"p": p, "q": q, "eps": eps})


def check_order_reduction_61(p: int, q: float, eps: int = 1
                             ) -> ReductionReport:
    """Consistency of the first-order form against the 6.1 residual.

    At each fixed w the ratio of the first-order residual (evaluated along
    a test phi, with psi_y = dpsi/dy) to the 6.1 residual is independent
    of the test function: five seeded test functions at each of four
    seeded anchors w must give ratios within 1e-8 of their median,
    relatively, and at least two of the five must be admissible.
    """
    if eps != 1:
        raise RealityError("the (h1)^(-1/4) weight is real only for eps = +1")
    red = order_reduce_61(p, q, eps)
    r61 = build_reduction(6, "1", {"p": p, "q": q, "eps": eps})
    rng = np.random.default_rng(42)
    lo, hi = r61.slice_range
    anchors = rng.uniform(lo, hi, size=4)

    subs = _jet(_CUBIC)
    y_of_w = substitute(red.y, subs)
    psi_of_w = substitute(red.psi, subs)
    psi_y = div(differentiate(psi_of_w, "w"), differentiate(y_of_w, "w"))
    along_cubic = compile_expressions(
        substitute(red.ode, {"y": y_of_w, "psi": psi_of_w, "psi_y": psi_y}),
        substitute(r61.reduced, subs))

    worst = 0.0
    for w0 in anchors:
        ref, spread = _ratio_spread(
            _ratios(along_cubic, {"w": w0}, rng, lo, hi, 5), 2)
        worst = max(worst, spread)
    return ReductionReport("6.1-order", worst <= 1e-8, worst, ref)


# ---------------------------------------------------------------------------
# algebraic reductions: numeric root, independent of the closed forms


def solve_algebraic(case: int, params: dict) -> float:
    """Positive root of the algebraic reduction in (1e-8, 1e4], found by
    bracketing on a log grid and ITP steps (independent of the closed-form
    amplitude).

    The grid is evaluated in one call, and its first cell whose finite end
    values have opposite signs is the bracket.  ITP steps, each one
    evaluation, narrow it until no float lies strictly inside, in at most
    one step more than bisection would take.
    """
    algebraic = compile_expressions(build_reduction(case, "0", params).algebraic)

    def g(c: float):
        return algebraic({"C": c})[0]

    grid = np.logspace(-8, 4, 400)
    vals = algebraic({"C": grid})[0]
    signs = np.where(np.isfinite(vals), np.sign(vals), 0.0)
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if cells.size == 0:
        raise ReductionError("no positive root bracketed")
    i = cells[0]
    return _bracketed_root(g, grid[i], grid[i + 1], vals[i], vals[i + 1],
                           1e-16)


def reduction_chain_solution(case: int, params: dict) -> Expression:
    """Solve the algebraic reduction numerically and substitute into the
    ansatz; used to cross-check the closed-form solutions."""
    r = build_reduction(case, "0", params)
    root = solve_algebraic(case, params)
    return substitute(r.ansatz, {"C": root})
