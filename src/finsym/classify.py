"""Structural classification of fin equations and their symmetry bases.

An equation is matched against a 13-case table keyed on the shapes of D
and h, from most to least specific.  A free-form coefficient f is fitted
on one set of 50 seeded samples, prepared once: its finite values with
their closeness scale, and its ratio f/f' with one design matrix (columns
v^0, v^1, v^2).  A ladder fits the ratio by a polynomial of degree 0
(c*e^(kv)), 1 (c*(v+s)^n) and, for h, 2 (the integral profile), each rung
by one least-squares solve and one check: its candidate counts when it is
finite and c times it is within a relative 1e-8 of the finite samples, at
8 or more points, c being their median ratio to it (one sort, to
np.median's bits).  A power candidate rounds its exponent when within 1e-9
of an integer, and the fitted exponent is reported unrounded.  When a
sample is inadmissible and the coefficient's admissible range (the one
:func:`finsym.model.validate` keeps) is not the default, the 50 are drawn
once more there.  An h with no free symbol is evaluated once instead.
Matches that need a scaling/translation of the equivalence group are
annotated in the result's note.  Only the fits use numpy, which they
import when they first run: classifying tagged equations never imports it.
"""
from __future__ import annotations

import math

from .expressions import (
    DEFAULT_SAMPLING_RANGES, Expression, Num, Sym, _median, add, call,
    compile_expressions, differentiate, evaluate, mul, neg, num, pow_,
    sample_bindings, sym,
)
from .model import (
    D_T, D_X, DShape, FinEquation, HShape, ModelError, VectorField,
    _admissible_range, _num_out, _record, h1_expression, is_four_thirds,
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


def _ratio(expr: Expression, var: str, seed: int):
    """The one sample set the rungs of a fit share: the points ``xs``
    where the coefficient's seeded values are finite, those values
    ``vals``, their closeness scale 1 + |vals|, and the design columns
    v^0, v^1, v^2 at the points where the log-derivative ratio z = f/f' is
    admissible, with z there.  The design is None when no rung can fit
    (fewer than 8 such points, or a z that is not finite).  When a sample
    is inadmissible and the :func:`~finsym.model._admissible_range` of
    (f, f') is not the default, the 50 are drawn once more there."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pieces = compile_expressions(expr, differentiate(expr, var))

    def draw(lo, hi):
        xs = sample_bindings((var,), rng, FIT_SAMPLES, {var: (lo, hi)})[var]
        vals, dvals = pieces({var: xs})
        ok = np.isfinite(vals) & np.isfinite(dvals) & (np.abs(dvals) > 1e-300)
        return xs, vals, dvals, ok

    default = DEFAULT_SAMPLING_RANGES[var]
    xs, vals, dvals, ok = draw(*default)
    if not ok.all():
        admissible, *_ = _admissible_range(pieces, var)
        if admissible not in (None, default):
            xs, vals, dvals, ok = draw(*admissible)
    finite = np.isfinite(vals)
    z = vals[ok] / dvals[ok]
    design = None
    if np.count_nonzero(ok) >= 8 and np.isfinite(z).all():
        v = xs[ok]
        design = np.empty((v.size, 3))  # v ** d, as numpy computes it
        design[:, 0], design[:, 1], design[:, 2] = 1.0, v, v * v
    vals = vals[finite]
    return xs[finite], vals, 1 + np.abs(vals), design, z


def _verified_coeff(vals, scale, shape) -> float | None:
    """The median ratio c of the samples ``vals`` to a candidate ``shape``
    at the same points, when the candidate is finite there, and c*shape
    matches the samples at FIT_TOL, by their closeness ``scale``; else
    None."""
    import numpy as np

    live = np.abs(shape) > 1e-300
    if not live.any() or not np.isfinite(shape).all():
        return None
    c = _median(vals[live] / shape[live])
    fit = c * shape
    close = np.abs(vals - fit) <= FIT_TOL * (scale + np.abs(fit))
    return c if close.all() else None


def _rung(degree: int, xs, vals, scale, design, z):
    """Fit z by a polynomial of ``degree`` in v, on the first degree + 1
    design columns: 1/k (c*e^(k v)), (v+s)/n (c*(v+s)^n) or ((v+s)^2+p)/q
    (the integral profile c*h1(v+s; p, q)).  (c, k|n|q, s, p) when c times
    the rung's candidate at ``xs`` matches the samples, else None.  The
    power candidate takes n rounded when it is within 1e-9 of an integer;
    a shift s within 1e-9 of 0 is returned as 0."""
    import numpy as np

    if design is None:
        return None
    fit, *_ = np.linalg.lstsq(design[:, :degree + 1], z, rcond=None)
    if fit[degree] == 0:
        return None
    s, p = 0.0, 0
    if degree == 0:
        lead = 1.0 / fit[0]
        shape = np.exp(lead * xs)
    elif degree == 1:
        g, a = fit
        lead, s = 1.0 / a, g / a
        whole, base = np.rint(lead), xs + s
        shape = (base ** whole if abs(lead - whole) <= 1e-9
                 else np.abs(base) ** lead)  # |v+s|: fits a reflected (s-v)^n
    else:
        g, a, b = fit
        lead = 1.0 / b
        s = a * lead / 2.0
        p_hat = g * lead - s * s
        p = np.rint(p_hat)
        if p not in (-1, 0, 1) or abs(p_hat - p) > 1e-6:
            return None
        p = int(p)
        shape = evaluate(h1_expression(p, lead, 1, var=add(_X, num(s))),
                         {"x": xs})
    c = _verified_coeff(vals, scale, shape)
    if c is None:
        return None
    return c, float(lead), 0.0 if abs(s) <= 1e-9 else float(s), p


def fit_d_shape(expr: Expression, seed: int = 42) -> DShape:
    """Match a u-expression against c*e^(k u) and c*(u+beta)^n."""
    import numpy as np

    with np.errstate(all="ignore"):  # ratios and candidates are checked
        ratio = _ratio(expr, "u", seed)
        for degree, kind in enumerate(("exp", "power")):
            fit = _rung(degree, *ratio)
            if fit is not None:
                c, lead, s, _ = fit
                if degree == 0:
                    return DShape(kind, coeff=c, k=lead)
                return DShape("shifted" if s else kind, coeff=c, n=lead,
                              beta=s)
        return _ARBITRARY_D


def fit_h_shape(expr: Expression, seed: int = 42) -> HShape:
    """Match an x-expression against 0, const, c*(x+s)^q, c*e^(kx) and the
    integral profile c*h1(x+s; p, q).  An expression with no free symbol is
    evaluated once, not sampled: zero when |v| <= 1e-12, const when v is
    finite, arbitrary otherwise."""
    import numpy as np

    if not expr.free_symbols():  # a number: read it, there is nothing to fit
        v = float(evaluate(expr, {}))
        if abs(v) <= 1e-12:
            return HShape("zero")
        return HShape("const", coeff=v) if math.isfinite(v) else _ARBITRARY_H
    with np.errstate(all="ignore"):  # ratios and candidates are checked
        ratio = _ratio(expr, "x", seed)
        vals = ratio[1]  # the finite samples
        if vals.size < 8:
            return _ARBITRARY_H
        vmax = float(np.maximum.reduce(np.abs(vals)))
        if vmax <= 1e-12:
            return HShape("zero")
        spread = float(np.maximum.reduce(vals) - np.minimum.reduce(vals))
        if spread <= 1e-12 * (1 + vmax):
            return HShape("const", coeff=_median(vals))
        for degree, kind in enumerate(("exp", "power", "h1")):
            fit = _rung(degree, *ratio)
            if fit is not None:
                c, lead, s, p = fit
                if degree == 0:
                    return HShape(kind, coeff=c, k=lead)
                return HShape(kind, coeff=c, q=lead, shift=s, p=p)
        return _ARBITRARY_H


def spec_shape(spec, seed: int = 42) -> DShape | HShape:
    """The normalized shape of a D or h spec: read off a tagged family, or
    fitted on seeded samples for a free-form expression."""
    if spec.family == "free":
        fit = fit_d_shape if spec.var == "u" else fit_h_shape
        return fit(spec.params[0], seed)
    return spec.shape()


# ---------------------------------------------------------------------------
# classification result


class ClassificationResult(_record("ClassificationResult",
                                   "case params basis note",
                                   defaults=(None,))):
    """The table case, its parameters (a dict), the symmetry basis (a
    tuple of :class:`VectorField`) and an optional note."""
    __slots__ = ()

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


def _all_finite(basis) -> bool:
    """Whether every number in the generators' coefficients is finite."""
    nodes = [e for vf in basis for e in (vf.tau, vf.xi, vf.eta)]
    for e in nodes:  # the loop reaches the children it appends
        kind = type(e)
        if kind is Num:
            if not math.isfinite(e.value):
                return False
        elif kind is not Sym:
            nodes.extend(e.children())
    return True


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
        # finite shapes can still multiply past the float range
        if not _all_finite(basis):
            raise ModelError(f"a generator of case {case} has a coefficient "
                             "that overflows; rescale the equation's "
                             "coefficients")
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
