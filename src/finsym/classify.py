"""Structural classification of fin equations and their symmetry bases.

An equation is matched against a 13-case table keyed on the shapes of D
and h, from most to least specific.  Free-form coefficients are matched to
family shapes by seeded least-squares fits on the log-derivative ratio
(D/D' is linear in u for power families, h/h' is quadratic in x for the
integral profile), then confirmed against the actual shape at a strict
relative residual.  Matches that need a scaling/translation of the
equivalence group are annotated in the result's note.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import (
    Expression, _close, add, call, compile_expressions, differentiate,
    evaluate, mul, neg, num, pow_, sample_bindings, sym,
)
from .model import (
    D_T, D_X, DShape, FinEquation, FreeD, FreeH, HShape, VectorField,
    _num_out, h1_expression, is_four_thirds,
)

__all__ = [
    "ClassificationResult", "classify",
    "DShape", "HShape", "fit_d_shape", "fit_h_shape", "spec_shape",
    "FIT_SAMPLES", "FIT_TOL",
]

FIT_SAMPLES = 50
FIT_TOL = 1e-8

_T, _X, _U = sym("t"), sym("x"), sym("u")


# ---------------------------------------------------------------------------
# shapes of free-form coefficients


_ARBITRARY_D = DShape("arbitrary")
_ARBITRARY_H = HShape("arbitrary")


def _ratio_fit(xs, vals, dvals, degree_mask):
    """Least squares of vals/dvals against monomials selected by mask."""
    ok = np.isfinite(vals) & np.isfinite(dvals) & (np.abs(dvals) > 1e-300)
    if ok.sum() < 8:
        return None
    z = vals[ok] / dvals[ok]
    if not np.all(np.isfinite(z)):
        return None
    cols = [xs[ok] ** d for d in degree_mask]
    a = np.stack(cols, axis=1)
    coeffs, *_ = np.linalg.lstsq(a, z, rcond=None)
    return coeffs


def _verified_coeff(vals, shape) -> float | None:
    """The median ratio c of the samples ``vals`` to a candidate ``shape``,
    when c*shape matches them at FIT_TOL; otherwise None."""
    ok = np.isfinite(vals) & np.isfinite(shape) & (np.abs(shape) > 1e-300)
    if ok.sum() < 8:
        return None
    c = float(np.median(vals[ok] / shape[ok]))
    want = c * shape
    finite = np.isfinite(vals) & np.isfinite(want)
    if finite.sum() < max(8, vals.size // 2):
        return None
    return c if np.all(_close(vals[finite], want[finite], FIT_TOL)) else None


def _exp_fit(xs, vals, dvals):
    """(c, k) when the samples fit c*e^(k v): their ratio to the derivative
    is constant."""
    fit = _ratio_fit(xs, vals, dvals, (0,))
    if fit is None or fit[0] == 0:
        return None
    k = 1.0 / fit[0]
    with np.errstate(all="ignore"):
        shape = np.exp(k * xs)
    c = _verified_coeff(vals, shape)
    return None if c is None else (c, k)


def _power_fit(xs, vals, dvals):
    """(c, n, s) when the samples fit c*(v+s)^n: their ratio to the
    derivative is linear.  A shift within 1e-9 of 0 is returned as 0."""
    fit = _ratio_fit(xs, vals, dvals, (0, 1))
    if fit is None or fit[1] == 0:
        return None
    g, a = fit
    n = 1.0 / a
    s = g / a
    with np.errstate(all="ignore"):
        shape = (xs + s) ** n
    c = _verified_coeff(vals, shape)
    return None if c is None else (c, n, 0.0 if abs(s) <= 1e-9 else s)


def fit_d_shape(expr: Expression, seed: int = 42) -> DShape:
    """Match a u-expression against c*e^(k u) and c*(u+beta)^n."""
    xs = sample_bindings(("u",), np.random.default_rng(seed), FIT_SAMPLES)["u"]
    vals, dvals = compile_expressions(
        expr, differentiate(expr, "u"))({"u": xs})
    exp = _exp_fit(xs, vals, dvals)
    if exp is not None:
        return DShape("exp", coeff=exp[0], k=exp[1])
    power = _power_fit(xs, vals, dvals)
    if power is not None:
        c, n, beta = power
        return DShape("shifted" if beta else "power", coeff=c, n=n, beta=beta)
    return _ARBITRARY_D


def fit_h_shape(expr: Expression, seed: int = 42) -> HShape:
    """Match an x-expression against 0, const, c*(x+s)^q, c*e^(kx) and the
    integral profile c*h1(x+s; p, q)."""
    xs = sample_bindings(("x",), np.random.default_rng(seed), FIT_SAMPLES)["x"]
    vals, dvals = compile_expressions(
        expr, differentiate(expr, "x"))({"x": xs})
    finite = np.isfinite(vals)
    if finite.sum() < 8:
        return _ARBITRARY_H
    vmax = float(np.max(np.abs(vals[finite])))
    if vmax <= 1e-12:
        return HShape("zero")
    spread = float(np.max(vals[finite]) - np.min(vals[finite]))
    if spread <= 1e-12 * (1 + vmax):
        return HShape("const", coeff=float(np.median(vals[finite])))

    exp = _exp_fit(xs, vals, dvals)
    if exp is not None:
        return HShape("exp", coeff=exp[0], k=exp[1])
    power = _power_fit(xs, vals, dvals)
    if power is not None:
        c, q, s = power
        return HShape("power", coeff=c, q=q, shift=s)

    # integral profile: h/h' quadratic in x, ((x+s)^2 + p)/q with p in {-1,0,1}
    fit = _ratio_fit(xs, vals, dvals, (0, 1, 2))
    if fit is None or fit[2] == 0:
        return _ARBITRARY_H
    g, a, b = fit
    q = 1.0 / b
    s = a * q / 2.0
    p_hat = g * q - s * s
    p = int(round(p_hat))
    if p not in (-1, 0, 1) or abs(p_hat - p) > 1e-6:
        return _ARBITRARY_H
    base = evaluate(h1_expression(p, q, 1, var=add(_X, num(s))), {"x": xs})
    c = _verified_coeff(vals, base)
    if c is None:
        return _ARBITRARY_H
    return HShape("h1", coeff=c, q=q, p=p,
                  shift=0.0 if abs(s) <= 1e-9 else s)


def spec_shape(spec, seed: int = 42) -> DShape | HShape:
    """The normalized shape of a D or h spec: read off a tagged family, or
    fitted on seeded samples for a free-form expression."""
    if isinstance(spec, FreeD):
        return fit_d_shape(spec.expr, seed)
    if isinstance(spec, FreeH):
        return fit_h_shape(spec.expr, seed)
    return spec.shape()


# ---------------------------------------------------------------------------
# classification result


@dataclass(frozen=True)
class ClassificationResult:
    case: int
    params: dict
    basis: tuple[VectorField, ...]
    note: str | None = None

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "params": {k: _num_out(v) for k, v in self.params.items()},
            "basis": [vf.to_string() for vf in self.basis],
            "note": self.note,
        }


def _scaling_vf(xs: Expression) -> VectorField:
    """2t d_t + xs d_x, the scaling of a profile in xs."""
    return VectorField(mul(num(2), _T), xs, num(0))


def _exp_time_vf(rate: float, c: float, su: Expression) -> VectorField:
    """e^(rate t) d_t + c e^(rate t) su d_u, of cases 8, 10 and 12."""
    e = call("exp", mul(num(rate), _T))
    return VectorField(e, num(0), mul(mul(num(c), e), su))


def _power_xu_vfs(n: float, su: Expression) -> list:
    """The x-u generators of D = su^n (cases 10-13): the projective pair
    when n = -4/3, otherwise the dilation n x d_x + 2 su d_u."""
    if is_four_thirds(n):
        return [VectorField(num(0), mul(num(2), _X), mul(num(-3), su)),
                VectorField(num(0), pow_(_X, num(2)),
                            mul(num(-3), mul(_X, su)))]
    return [VectorField(num(0), mul(num(n), _X), mul(num(2), su))]


def _sign(v: float) -> int:
    return 1 if v > 0 else -1


def classify(eq: FinEquation, seed: int = 42) -> ClassificationResult:
    """Map an equation to its table case and symmetry basis.

    Matching runs from most to least specific structure; free-form
    coefficients that fit no family shape are treated as arbitrary.  The
    returned generators are symmetries of the input equation as given (no
    renormalization is applied to the equation itself).
    """
    d = spec_shape(eq.D, seed)
    h = spec_shape(eq.h, seed + 1)
    # an arbitrary shape keeps the defaults coeff = k = 1, beta = 0; only
    # an exp D has k != 1 and only a shifted D has beta != 0
    notes: list = []
    if abs(d.coeff - 1.0) > 1e-9:
        notes.append(f"D coefficient {d.coeff:.6g} rescaled to 1")
    if abs(d.k - 1.0) > 1e-9:
        notes.append(f"D exponent rate {d.k:.6g} rescaled to 1")
    if min(abs(d.beta), abs(d.beta - 1.0)) > 1e-9:
        notes.append(f"u-shift {d.beta:.6g} normalized to alpha=1")
    eps_flip = _sign(d.coeff)
    if eps_flip < 0:
        notes.append("negative D coefficient absorbed by time reflection")

    def done(case, params, basis):
        return ClassificationResult(case, params, tuple(basis),
                                    "; ".join(notes) or None)

    def normalize_h(target) -> Expression:
        """Note the rescaling of h's coefficient to ``target`` and its
        x-translation; return the translated x."""
        if abs(h.coeff - target) > 1e-9:
            notes.append(f"h coefficient {h.coeff:.6g} rescaled to {target}")
        if h.shift:
            notes.append(f"x-translation by {h.shift:.6g} absorbed")
        return add(_X, num(h.shift)) if h.shift else _X

    su = add(_U, num(d.beta)) if d.beta else _U
    c = h.constant()
    if c == 0.0:
        base = [D_T, D_X, _scaling_vf(_X)]
        if d.kind == "exp":
            eta = num(2.0 / d.k if abs(d.k - 1.0) > 1e-9 else 2)
            return done(9, {}, [*base, VectorField(num(0), _X, eta)])
        if d.kind in ("power", "shifted"):
            alpha = d.beta if d.beta in (0.0, 1.0) else 1.0
            basis = [*base, *_power_xu_vfs(d.n, su)]
            if is_four_thirds(d.n):
                return done(13, {"alpha": alpha}, basis)
            return done(11, {"n": d.n, "alpha": alpha}, basis)
        return done(7, {}, base)
    if c is not None:
        eps = _sign(c) * eps_flip
        # any nonzero shift rescales onto (u+1)^(-1)
        reciprocal = d.kind == "shifted" and abs(d.n + 1.0) <= 1e-9
        if not reciprocal and d.kind != "power":
            # arbitrary D (also exp or off-table shifts) with constant h
            if abs(c - 1.0) > 1e-9:
                notes.append(f"h={c:.6g} rescaled to 1")
            return done(2, {"c": c}, [D_T, D_X])
        if abs(abs(c) - 1) > 1e-9:
            notes.append(f"h={c:.6g} rescaled to eps={eps}")
        if reciprocal:
            return done(8, {"eps": eps}, [D_T, D_X, _exp_time_vf(c, c, su)])
        four_thirds = is_four_thirds(d.n)
        rate = 4.0 * c / 3.0 if four_thirds else -c * d.n
        basis = [D_T, D_X, _exp_time_vf(rate, c, su),
                 *_power_xu_vfs(d.n, su)]
        if four_thirds:
            return done(12, {"eps": eps}, basis)
        return done(10, {"n": d.n, "eps": eps}, basis)

    # nonconstant h
    if d.kind == "power" and (h.kind in ("power", "exp")
                              or (h.kind == "h1" and is_four_thirds(d.n))):
        eps = _sign(h.coeff) * eps_flip
        xs = normalize_h(eps)
        if h.kind == "power":
            basis = [D_T,
                     VectorField(mul(num(-h.q * d.n), _T),
                                 mul(num(d.n), xs),
                                 mul(num(h.q + 2.0), _U))]
            return done(4, {"n": d.n, "q": h.q, "eps": eps}, basis)
        if h.kind == "exp":
            if abs(h.k - 1.0) > 1e-9:
                notes.append(f"x rescaled by {h.k:.6g} to unit exponent rate")
            basis = [D_T,
                     VectorField(mul(num(-d.n), _T), num(d.n / h.k), _U)]
            return done(5, {"n": d.n, "eps": eps}, basis)
        basis = [D_T,
                 VectorField(mul(num(-4.0 * h.q), _T),
                             mul(num(4), add(pow_(xs, num(2)), num(h.p))),
                             neg(mul(num(3), mul(add(mul(num(4), xs),
                                                     num(h.q)), _U))))]
        return done(6, {"p": h.p, "q": h.q, "eps": eps}, basis)

    # a non-power D with special h: constant already handled; x^-2 remains
    if h.kind == "power" and abs(h.q + 2.0) <= 1e-9:
        return done(3, {"c": h.coeff}, [D_T, _scaling_vf(normalize_h(1))])
    return done(1, {}, [D_T])
