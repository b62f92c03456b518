"""Second prolongation of point generators and invariance residuals.

For X = tau(t) d_t + xi(t,x) d_x + eta(t,x,u) d_u acting on
Delta = u_t - D u_xx - D_u u_x^2 - h u, the prolonged action is assembled
symbolically over jet coordinates (t, x, u, u_x, u_xx) on solutions: eta^t,
the one piece holding u_t, takes the value of u_t from the equation.
Because tau depends on t only, no u_tx term ever appears.  Each equation's
D, D_u, D_uu, h, h_x, u_t on solutions and the residual's three factors
that hold no field are built once, as ``FinEquation.jet``, and shared by
every generator prolonged on it.
"""
from __future__ import annotations

from .expressions import (
    DEFAULT_SAMPLING_RANGES, ONE, ZERO, Expression, add, differentiate,
    div, max_relative, mul, neg, sub, substitute, sym,
)
from .model import FinEquation, ModelError, VectorField, _record

__all__ = [
    "JetResidual", "prolonged_residual", "symmetry_residual",
    "conditional_residual", "SymmetryError",
    "DEFAULT_JET_RANGES",
]

DEFAULT_JET_RANGES = {
    **DEFAULT_SAMPLING_RANGES,
    "u_t": (-2.0, 2.0), "u_x": (-2.0, 2.0), "u_xx": (-2.0, 2.0),
}

_TOTAL_X_DEPS = {"u": ("x",), "u_x": ("x",), "u_xx": ("x",)}


class SymmetryError(ModelError):
    pass


class JetResidual(_record("JetResidual", "terms")):
    """Residual over jet coordinates, kept as its additive pieces.

    The pieces, a tuple of expressions, are summed for the value; their
    magnitudes provide the cancellation scale for the relative zero test.
    """
    __slots__ = ()

    @property
    def residual(self) -> Expression:
        total = ZERO
        for term in self.terms:
            total = add(total, term)
        return total

    def max_relative(self, seed: int = 42, samples: int = 50,
                     ranges=None) -> float:
        """:func:`finsym.expressions.max_relative` over jet samples; fewer
        than ``samples // 2`` finite points raise :class:`SymmetryError`."""
        worst, kept = max_relative(self.terms, seed, samples,
                                   {**DEFAULT_JET_RANGES, **(ranges or {})})
        if kept < max(1, samples // 2):
            raise SymmetryError(f"jet sampling found only {kept} finite points")
        return worst


def _check_shapes(field: VectorField):
    if not field.tau.free_symbols() <= {"t"}:
        raise SymmetryError("tau may depend on t only")
    if not field.xi.free_symbols() <= {"t", "x"}:
        raise SymmetryError("xi may depend on (t, x) only")
    if not field.eta.free_symbols() <= {"t", "x", "u"}:
        raise SymmetryError("eta may depend on (t, x, u) only")


def _raw_terms(eq: FinEquation, field: VectorField, u_t: Expression
               ) -> tuple[Expression, ...]:
    """Additive pieces of pr X(Delta) with ``u_t`` put for u_t in eta^t,
    the only piece that holds it."""
    tau, xi, eta = field.tau, field.xi, field.eta
    u_x, u_xx = sym("u_x"), sym("u_xx")
    jet = eq.jet

    tau_t = differentiate(tau, "t")
    xi_t, xi_x = differentiate(xi, "t"), differentiate(xi, "x")
    eta_t, eta_x, eta_u = (differentiate(eta, v) for v in ("t", "x", "u"))

    # first and second prolongation coefficients (tau_x = tau_u = 0)
    eta_xp = add(eta_x, mul(u_x, sub(eta_u, xi_x)))
    eta_tp = add(eta_t, sub(mul(u_t, sub(eta_u, tau_t)), mul(u_x, xi_t)))
    eta_xxp = sub(differentiate(eta_xp, "x", deps=_TOTAL_X_DEPS),
                  mul(u_xx, xi_x))

    return (
        eta_tp,
        neg(mul(xi, jet.h_x_u)),
        mul(eta, jet.eta_coeff),
        neg(mul(jet.two_d_u, mul(u_x, eta_xp))),
        neg(mul(jet.d, eta_xxp)),
    )


def prolonged_residual(eq: FinEquation, field: VectorField) -> JetResidual:
    """Prolonged action on the equation, on its solutions.

    The result vanishes identically on (t, x, u, u_x, u_xx) iff the field
    is a Lie point symmetry of the equation.  The equation's coefficient
    pieces come from ``eq.jet``, derived on the first call for that
    object; only the field is differentiated on every call.
    """
    _check_shapes(field)
    return JetResidual(_raw_terms(eq, field, eq.jet.u_t))


def symmetry_residual(eq: FinEquation, field: VectorField, seed: int = 42,
                      samples: int = 50, ranges=None) -> float:
    """Largest relative prolonged residual over seeded jet samples on
    ``eq.ranges`` updated by ``ranges``; a symmetry gives rounding level."""
    return prolonged_residual(eq, field).max_relative(
        seed, samples, {**eq.ranges, **(ranges or {})})


def conditional_residual(eq: FinEquation, field: VectorField) -> JetResidual:
    """Residual for conditional (nonclassical) invariance.

    Supports the two operator shapes with tau identically 1 or identically
    0 (with xi nonzero).  Both the equation and the invariant-surface
    condition Q = eta - tau u_t - xi u_x = 0, with the needed differential
    consequences, are imposed.
    """
    _check_shapes(field)
    tau, xi, eta = field.tau, field.xi, field.eta

    if tau == ONE:
        # u_t = eta - xi u_x; combined with the equation this pins u_xx
        u, u_x, jet = sym("u"), sym("u_x"), eq.jet
        u_t = sub(eta, mul(xi, u_x))
        u_xx = div(sub(sub(u_t, mul(jet.d_u, mul(u_x, u_x))), mul(jet.h, u)),
                   jet.d)
        mapping = {"u_xx": u_xx}
    elif tau == ZERO:
        if xi == ZERO:
            raise SymmetryError("tau = 0 requires a nonzero xi")
        w = div(eta, xi)  # u_x on the invariant surface
        w_total = add(differentiate(w, "x"), mul(differentiate(w, "u"), w))
        mapping = {"u_x": w, "u_xx": w_total}  # u_xx = D_x w on the surface
        u_t = substitute(eq.jet.u_t, mapping)
    else:
        raise SymmetryError(
            "unsupported tau shape: only tau = 1 or tau = 0 are handled")

    return JetResidual(tuple(substitute(t, mapping)
                             for t in _raw_terms(eq, field, u_t)))
