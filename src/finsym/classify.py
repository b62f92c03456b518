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
    Expression, _close, add, call, compile_expressions, evaluate, mul, neg,
    num, pow_, sample_bindings, sym,
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


def _verified(got, want) -> bool:
    """Whether a candidate's values ``want`` match the sampled values
    ``got``."""
    finite = np.isfinite(got) & np.isfinite(want)
    if finite.sum() < max(8, got.size // 2):
        return False
    return bool(np.all(_close(got[finite], want[finite], FIT_TOL)))


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


def _median_coeff(vals, shape_vals):
    ok = np.isfinite(vals) & np.isfinite(shape_vals) & (np.abs(shape_vals) > 1e-300)
    if ok.sum() < 8:
        return None
    return float(np.median(vals[ok] / shape_vals[ok]))


def _exp_fit(xs, vals, dvals):
    """(c, k) when the samples fit c*e^(k v): their ratio to the derivative
    is constant."""
    fit = _ratio_fit(xs, vals, dvals, (0,))
    if fit is None or fit[0] == 0:
        return None
    k = 1.0 / fit[0]
    with np.errstate(all="ignore"):
        shape = np.exp(k * xs)
    c = _median_coeff(vals, shape)
    if c is None or not _verified(vals, c * shape):
        return None
    return c, k


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
    c = _median_coeff(vals, shape)
    if c is None or not _verified(vals, c * shape):
        return None
    return c, n, 0.0 if abs(s) <= 1e-9 else s


def fit_d_shape(expr: Expression, seed: int = 42) -> DShape:
    """Match a u-expression against c*e^(k u) and c*(u+beta)^n."""
    xs = sample_bindings(("u",), np.random.default_rng(seed), FIT_SAMPLES)["u"]
    vals, dvals = compile_expressions(expr, expr.diff("u"))({"u": xs})
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
    vals, dvals = compile_expressions(expr, expr.diff("x"))({"x": xs})
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
    if fit is not None:
        g, a, b = fit
        if b != 0:
            q = 1.0 / b
            s = a * q / 2.0
            p_hat = g * q - s * s
            p = int(round(p_hat))
            if p in (-1, 0, 1) and abs(p_hat - p) <= 1e-6:
                base = evaluate(h1_expression(p, q, 1, var=add(_X, num(s))),
                                {"x": xs})
                c = _median_coeff(vals, base)
                if c is not None and _verified(vals, c * base):
                    if abs(s) <= 1e-9:
                        s = 0.0
                    return HShape("h1", coeff=c, q=q, p=p, shift=s)
    return _ARBITRARY_H


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


def _scaling_vf(shift: float) -> VectorField:
    return VectorField(mul(num(2), _T), add(_X, num(shift)) if shift else _X,
                       num(0))


def _exp_t(rate: float) -> Expression:
    return call("exp", mul(num(rate), _T))


def _notes_d(d: DShape, parts: list):
    if d.kind in ("power", "shifted") and abs(d.coeff - 1.0) > 1e-9:
        parts.append(f"D coefficient {d.coeff:.6g} rescaled to 1")
    if d.kind == "exp":
        if abs(d.coeff - 1.0) > 1e-9:
            parts.append(f"D coefficient {d.coeff:.6g} rescaled to 1")
        if abs(d.k - 1.0) > 1e-9:
            parts.append(f"D exponent rate {d.k:.6g} rescaled to 1")
    if d.kind == "shifted" and min(abs(d.beta), abs(d.beta - 1.0)) > 1e-9:
        parts.append(f"u-shift {d.beta:.6g} normalized to alpha=1")


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
    u = _U
    notes: list = []
    _notes_d(d, notes)

    eps_flip = _sign(d.coeff) if d.kind != "arbitrary" else 1
    if eps_flip < 0:
        notes.append("negative D coefficient absorbed by time reflection")

    def note_h_coeff(c, target):
        if abs(abs(c) - abs(target)) > 1e-9 or abs(c - target) > 1e-9:
            notes.append(f"h coefficient {c:.6g} rescaled to {target}")

    def done(case, params, basis):
        return ClassificationResult(case, params, tuple(basis),
                                    "; ".join(notes) or None)

    c = h.constant()
    if c is not None:
        if c != 0.0:
            eps = _sign(c) * eps_flip
            if d.kind == "shifted" and abs(d.n + 1.0) <= 1e-9:
                # any nonzero shift rescales onto (u+1)^(-1)
                if abs(abs(c) - 1) > 1e-9:
                    notes.append(f"h={c:.6g} rescaled to eps={eps}")
                shifted_u = add(u, num(d.beta))
                basis = [D_T, D_X,
                         VectorField(_exp_t(c), num(0),
                                     mul(mul(num(c), _exp_t(c)), shifted_u))]
                return done(8, {"eps": eps}, basis)
            if d.kind == "power":
                if abs(abs(c) - 1) > 1e-9:
                    notes.append(f"h={c:.6g} rescaled to eps={eps}")
                if is_four_thirds(d.n):
                    basis = [D_T, D_X,
                             VectorField(_exp_t(4.0 * c / 3.0), num(0),
                                         mul(mul(num(c), _exp_t(4.0 * c / 3.0)), u)),
                             VectorField(num(0), mul(num(2), _X),
                                         mul(num(-3), u)),
                             VectorField(num(0), pow_(_X, num(2)),
                                         mul(num(-3), mul(_X, u)))]
                    return done(12, {"eps": eps}, basis)
                basis = [D_T, D_X,
                         VectorField(_exp_t(-c * d.n), num(0),
                                     mul(mul(num(c), _exp_t(-c * d.n)), u)),
                         VectorField(num(0), mul(num(d.n), _X),
                                     mul(num(2), u))]
                return done(10, {"n": d.n, "eps": eps}, basis)
            # arbitrary D (also exp or off-table shifts) with constant h
            if abs(c - 1.0) > 1e-9:
                notes.append(f"h={c:.6g} rescaled to 1")
            return done(2, {"c": c}, [D_T, D_X])
        # h identically zero
        if d.kind == "exp":
            if abs(d.k - 1.0) > 1e-9:
                eta4 = num(2.0 / d.k)
            else:
                eta4 = num(2)
            basis = [D_T, D_X, _scaling_vf(0.0),
                     VectorField(num(0), _X, eta4)]
            return done(9, {}, basis)
        if d.kind in ("power", "shifted"):
            beta = d.beta if d.kind == "shifted" else 0.0
            alpha = beta if beta in (0.0, 1.0) else 1.0
            shifted_u = add(u, num(beta)) if beta else u
            if is_four_thirds(d.n):
                basis = [D_T, D_X, _scaling_vf(0.0),
                         VectorField(num(0), mul(num(2), _X),
                                     mul(num(-3), shifted_u)),
                         VectorField(num(0), pow_(_X, num(2)),
                                     mul(num(-3), mul(_X, shifted_u)))]
                return done(13, {"alpha": alpha}, basis)
            basis = [D_T, D_X, _scaling_vf(0.0),
                     VectorField(num(0), mul(num(d.n), _X),
                                 mul(num(2), shifted_u))]
            return done(11, {"n": d.n, "alpha": alpha}, basis)
        return done(7, {}, [D_T, D_X, _scaling_vf(0.0)])

    # nonconstant h
    if d.kind == "power":
        if h.kind == "power":
            eps = _sign(h.coeff) * eps_flip
            note_h_coeff(h.coeff, eps)
            if h.shift:
                notes.append(f"x-translation by {h.shift:.6g} absorbed")
            xs = add(_X, num(h.shift)) if h.shift else _X
            basis = [D_T,
                     VectorField(mul(num(-h.q * d.n), _T),
                                 mul(num(d.n), xs),
                                 mul(num(h.q + 2.0), u))]
            return done(4, {"n": d.n, "q": h.q, "eps": eps}, basis)
        if h.kind == "exp":
            eps = _sign(h.coeff) * eps_flip
            note_h_coeff(h.coeff, eps)
            if abs(h.k - 1.0) > 1e-9:
                notes.append(f"x rescaled by {h.k:.6g} to unit exponent rate")
            basis = [D_T,
                     VectorField(mul(num(-d.n), _T), num(d.n / h.k), u)]
            return done(5, {"n": d.n, "eps": eps}, basis)
        if h.kind == "h1" and is_four_thirds(d.n):
            eps = _sign(h.coeff) * eps_flip
            note_h_coeff(h.coeff, eps)
            if h.shift:
                notes.append(f"x-translation by {h.shift:.6g} absorbed")
            xs = add(_X, num(h.shift)) if h.shift else _X
            basis = [D_T,
                     VectorField(mul(num(-4.0 * h.q), _T),
                                 mul(num(4), add(pow_(xs, num(2)), num(h.p))),
                                 neg(mul(num(3), mul(add(mul(num(4), xs),
                                                         num(h.q)), u))))]
            return done(6, {"p": h.p, "q": h.q, "eps": eps}, basis)
        return done(1, {}, [D_T])

    # arbitrary D with special h: constant already handled; x^-2 remains
    if h.kind == "power" and abs(h.q + 2.0) <= 1e-9:
        if abs(h.coeff - 1.0) > 1e-9:
            notes.append(f"h coefficient {h.coeff:.6g} rescaled to 1")
        if h.shift:
            notes.append(f"x-translation by {h.shift:.6g} absorbed")
        basis = [D_T, _scaling_vf(h.shift)]
        return done(3, {"c": h.coeff}, basis)
    return done(1, {}, [D_T])
