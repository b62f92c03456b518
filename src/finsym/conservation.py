"""Local conservation laws for constant source coefficient.

With h constant the class carries a two-dimensional space of local
conservation laws; its basis is built here per diffusion family (the only
symbolic integration needed anywhere is the antiderivative of D).  The
characteristic identity D_t rho + D_x F = lambda * (equation) is verified
on jet space with u_t, u_x, u_xx treated as independent coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import spec_shape
from .expressions import (
    Expression, add, call, differentiate, div, evaluate, mul, neg, num,
    pow_, sub, sym, to_string,
)
from .model import DShape, FinEquation, ModelError
from .numeric import Field, Grid, NoFluxBC, solve_pde
from .symmetry import JetResidual, _rhs

__all__ = [
    "ConservationLaw", "conservation_laws", "divergence_residual",
    "discrete_balance_error", "ConservationError", "AntiderivativeError",
]

_T, _X, _U = sym("t"), sym("x"), sym("u")
_U_X = sym("u_x")


class ConservationError(ModelError):
    pass


class AntiderivativeError(ConservationError):
    """No closed antiderivative of D is available for this spec."""


@dataclass(frozen=True)
class ConservationLaw:
    density: Expression         # rho(t, x, u)
    flux: Expression            # F(t, x, u, u_x)
    characteristic: Expression  # lambda(t, x)

    def to_json(self) -> dict:
        return {"density": to_string(self.density),
                "flux": to_string(self.flux),
                "characteristic": to_string(self.characteristic)}


def _antiderivative(d: DShape) -> Expression:
    """Antiderivative in u of a tagged D, integration constant fixed to 0."""
    if d.kind == "exp":
        return call("exp", _U)
    base = add(_U, num(d.beta))
    if abs(d.n + 1.0) <= 1e-12:
        return call("ln", base)
    return div(pow_(base, num(d.n + 1.0)), num(d.n + 1.0))


def conservation_laws(eq: FinEquation) -> list[ConservationLaw]:
    """The two basis laws when h is constant, the empty list otherwise."""
    c = spec_shape(eq.h, seed=11).constant()
    if c is None:
        return []
    if eq.D.family == "free":
        raise AntiderivativeError(
            "antiderivative unavailable: free-form D with constant h")
    decay = call("exp", mul(num(-c), _T))  # folds to 1 when c = 0
    d = eq.d_expr()
    int_d = _antiderivative(eq.D.shape())
    law_x = ConservationLaw(
        density=mul(_X, mul(decay, _U)),
        flux=mul(decay, add(neg(mul(_X, mul(d, _U_X))), int_d)),
        characteristic=mul(_X, decay))
    law_1 = ConservationLaw(
        density=mul(decay, _U),
        flux=neg(mul(decay, mul(d, _U_X))),
        characteristic=decay)
    return [law_x, law_1]


def divergence_residual(cl: ConservationLaw, eq: FinEquation,
                        seed: int = 42, tol: float = 1e-9
                        ) -> tuple[JetResidual, bool]:
    """D_t rho + D_x F - lambda * Delta on jet space, plus its zero test."""
    dt_rho = differentiate(cl.density, "t", deps={"u": ("t",)})
    dx_flux = differentiate(cl.flux, "x",
                            deps={"u": ("x",), "u_x": ("x",)})
    delta = sub(sym("u_t"), _rhs(eq))
    residual = JetResidual((dt_rho, dx_flux, neg(mul(cl.characteristic,
                                                     delta))))
    return residual, residual.max_relative(seed=seed) <= tol


def discrete_balance_error(eq: FinEquation, initial: Expression,
                           grid: Grid) -> float:
    """|M(T) - M(0)| for M(t) = dx * sum_i rho(t, x_i, u_i) on a no-flux run.

    rho is the density of the constant-flux law (the second basis law):
    its flux vanishes at the walls, so the drift measures the scheme's
    balance error directly.
    """
    laws = conservation_laws(eq)
    if not laws:
        raise ConservationError("no conservation laws: h is not constant")
    rho = laws[1].density
    field: Field = solve_pde(eq, initial, NoFluxBC(), grid)

    def mass(k: int) -> float:
        vals = evaluate(rho, {"t": field.times[k], "x": field.x,
                              "u": field.values[k]})
        return float(np.sum(vals)) * grid.dx

    return abs(mass(len(field.times) - 1) - mass(0))
