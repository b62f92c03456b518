"""Finite-difference oracle and residual evaluation on grids.

The solver is a conservative second-order discretization of
(D(u) u_x)_x with interface coefficients D((u_i + u_{i+1})/2), a nodal
source h(x_i) u_i, and explicit Euler stepping (implicit Euler with a
damped fixed-point iteration behind a flag).  Singular coefficients are
handled by domain restriction only; stalls and blow-up abort loudly.

Expressions evaluated at the same points are compiled together with
:func:`~finsym.expressions.compile_expressions`, the one evaluator, and
every tape is compiled before the loop that calls it.  In the FD step
loop one tape per D, kept for every later solve of that D, returns D at
the interfaces together with D (u_r - u_l) across each; the step divides
that by dx for the flux D u_x, and each explicit step checks its dt
against those D.  The Dirichlet boundary
values and the sampled residual get one tape each.  An explicit step
writes every stencil, update and check into arrays allocated once per
solve: the state lives in two buffers that swap roles, so a step
allocates only what the interface core returns.
One whole RK4 step of a reduced equation is one tape, compiled once per
residual and kept for later integrations of the same residual; a shoot
looks it up once and marches every probe with it.

The two loops call their tape's positional core (``tape.bind(order)``),
not the checked ``tape(bindings)``: each holds one
``np.errstate(all="ignore")`` around the whole loop, the FD loop binds
the (u_l, u_r) views of its float64 state and the RK4 march binds
``np.float64`` scalars, so each call skips the tape's per-call set-up
and the bits are the same.  ``bind`` generates the core as straight-line
code once per order and keeps it on the tape, where ``tape(bindings)``
interprets the steps: the RK4 tape, kept per residual, generates its
core once for all the integrations and shoots of that residual, and the
interface tape, kept per D, generates its core once for every grid and
boundary that D is solved on.
"""
from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .expressions import (
    Add, Div, Expression, Mul, Neg, Num, Sub, Sym, UnboundSymbolError,
    compile_expressions, differentiate, mul, sample_finite, substitute,
)
from .model import (
    FinEquation, ModelError, NumericError, Solution, pde_residual_expression,
)

__all__ = [
    "Grid", "Field", "DirichletBC", "NoFluxBC", "solve_pde",
    "pde_residual_expression", "pde_residual_grid",
    "integrate_reduced_ode", "shoot_reduced_ode",
    "NumericError", "StabilityError", "BlowUpError", "CoefficientFailure",
    "ConvergenceError", "STABILITY_FACTOR", "BLOWUP_THRESHOLD",
]

STABILITY_FACTOR = 0.45
BLOWUP_THRESHOLD = 1e12
# forward Euler's diffusion limit dt max|D| / dx^2 <= 1/2 (Hundsdorfer &
# Verwer 2003, ch. I); STABILITY_FACTOR sets an automatic dt 11% under it
_EULER_LIMIT = 0.5
_BOUNDARY_BLOCK = 1 << 16  # steps per boundary tape call: bounded memory


class StabilityError(NumericError):
    pass


class CoefficientFailure(NumericError):
    pass


class ConvergenceError(NumericError):
    pass


class BlowUpError(NumericError):
    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on [a, b] x [0, T]."""
    a: float
    b: float
    m: int
    t_final: float
    dt: float | None = None

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ModelError("grid requires finite a < b")
        if self.m < 8:
            raise ModelError("grid requires at least 8 nodes")
        if not 0 <= self.t_final < math.inf:
            raise ModelError("time horizon must be finite and nonnegative")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ModelError("dt must be positive and finite")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.m - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.m)


@dataclass(frozen=True)
class DirichletBC:
    left: Expression
    right: Expression


@dataclass(frozen=True)
class NoFluxBC:
    pass


@dataclass
class Field:
    """Stored time levels of a numerical solution."""
    x: np.ndarray
    times: np.ndarray
    values: np.ndarray  # shape (len(times), len(x))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("t,x,u\n")
        for k, t in enumerate(self.times):
            for j, xv in enumerate(self.x):
                out.write(f"{float(t)!r},{float(xv)!r},"
                          f"{float(self.values[k, j])!r}\n")
        return out.getvalue()


def _boundary_values(boundary: DirichletBC, n_steps: int, dt: float,
                     t_final: float):
    """(left, right) at each step time, one tape call per block of steps."""
    values_at = compile_expressions(boundary.left, boundary.right)
    for start in range(1, n_steps + 1, _BOUNDARY_BLOCK):
        k = np.arange(start, min(start + _BOUNDARY_BLOCK, n_steps + 1))
        t = np.where(k < n_steps, k * dt, t_final)  # the last at t_final
        yield from zip(*values_at({"t": t}))


@functools.lru_cache(maxsize=64)
def _interface_tape(d: Expression, key: str):
    """D at the interfaces and the interface flux times dx, as one tape.

    The tape takes u_l = v[:-1] and u_r = v[1:] and returns (D_half,
    D_half*(u_r-u_l)), D_half being D((u_l + u_r)/2).  Raw nodes, so it
    applies the array operations in the order 0.5*(u_l+u_r) and
    D*(u_r-u_l); the step divides by dx.  It is kept per D, and with it
    the core ``bind`` generates, so every grid and boundary of one D
    shares one compile.  ``key`` is ``repr(d)``: trees that differ only in
    the sign of a zero constant compare equal.
    """
    u_l, u_r = Sym("u_l"), Sym("u_r")
    d_half = substitute(d, {"u": Mul(Num(0.5), Add(u_l, u_r))})
    return compile_expressions(d_half, Mul(d_half, Sub(u_r, u_l)))


def solve_pde(eq: FinEquation, initial: Expression, boundary, grid: Grid,
              method: str = "explicit") -> Field:
    """March the equation forward and return stored time levels.

    ``boundary`` is a :class:`DirichletBC` (expressions in t) or
    :class:`NoFluxBC` (reflecting ghost nodes, zero interface flux);
    anything else raises :class:`ModelError`.
    When ``grid.dt`` is None, dt is 0.45 dx^2 / max|D| on the initial
    interfaces.  Each explicit step checks dt max|D| / dx^2 <= 1/2 on the
    D values it computes; a :class:`StabilityError` names its dt and t.
    The interface tape is kept per D (the ``repr`` of its tree), so
    solves of one D on any grid share one compile.  The state lives in
    two buffers that swap roles each step, and each step writes its
    stencil, update and checks with ``out=`` into work arrays allocated
    once per solve; the levels stored are copies, never a buffer.
    """
    if method not in ("explicit", "implicit"):
        raise NumericError(f"unknown method {method!r}")
    if not isinstance(boundary, (DirichletBC, NoFluxBC)):
        raise ModelError(
            f"boundary must be a DirichletBC or a NoFluxBC, got {boundary!r}")
    dirichlet = isinstance(boundary, DirichletBC)
    xs = grid.nodes()
    dx = grid.dx
    u, h_nodes = compile_expressions(initial, eq.h_expr())({"x": xs})
    if not np.all(np.isfinite(u)):
        raise NumericError("initial data not finite on the grid")
    if not np.all(np.isfinite(h_nodes)):
        raise CoefficientFailure("h not evaluable at a node")
    if grid.t_final == 0:
        return Field(xs, np.array([0.0]), u[None, :].copy())

    d = eq.d_expr()
    interfaces_at = _interface_tape(d, repr(d))
    interfaces = interfaces_at.bind(("u_l", "u_r"))  # the loop's core

    dt = grid.dt
    if dt is None:
        d_half, _ = interfaces_at({"u_l": u[:-1], "u_r": u[1:]})
        max_d = float(np.abs(d_half).max())
        if not math.isfinite(max_d):
            raise CoefficientFailure("D not finite on the initial data")
        dt = STABILITY_FACTOR * dx * dx / max(max_d, 1e-300)
    n_steps = max(1, int(np.ceil(grid.t_final / dt - 1e-12)))
    dt = grid.t_final / n_steps
    d_bound = (_EULER_LIMIT * dx * dx / dt if method == "explicit"
               else np.finfo(float).max)  # implicit: any finite max|D|

    store_every = max(1, n_steps // 10)  # about 11 levels, t = 0 included
    times = [0.0]
    levels = [u.copy()]
    if dirichlet:
        bounds = _boundary_values(boundary, n_steps, dt, grid.t_final)

    # the work arrays and their views, made once: each step writes every
    # stencil, update and check into them with out=
    m = grid.m
    flux = np.empty(m - 1)
    flux_l, flux_r = flux[:-1], flux[1:]
    d_abs = np.empty(m - 1)
    inner = np.empty(m - 2)  # (flux_r - flux_l) / dx
    source = np.empty(m - 2)  # h u at the inner nodes
    du = np.zeros(m)  # the rate; a Dirichlet solve keeps its ends 0
    du_in = du[1:-1]
    u_abs = np.empty(m)
    h_in = h_nodes[1:-1]
    h_0, h_m = h_nodes[0], h_nodes[-1]
    # the state's two buffers, with their (v, u_l, u_r, inner) views
    state = np.empty((2, m))
    state[0] = u
    now, after = ((v, v[:-1], v[1:], v[1:-1]) for v in state)

    def rate(v, v_l, v_r, v_in) -> np.ndarray:
        d_half, flux_dx = interfaces(v_l, v_r)
        max_d = np.maximum.reduce(np.abs(d_half, out=d_abs))
        if not max_d <= d_bound:  # NaN and inf fail too
            if not math.isfinite(max_d):
                raise CoefficientFailure("D not finite at an interface")
            raise StabilityError(
                f"explicit step dt={dt:g} exceeds the stability bound "
                f"{_EULER_LIMIT * dx * dx / float(max_d):g} at t={t:g}; "
                "pass a smaller dt or method='implicit'")
        np.divide(flux_dx, dx, out=flux)
        np.subtract(flux_r, flux_l, out=inner)
        np.divide(inner, dx, out=inner)
        np.multiply(h_in, v_in, out=source)
        np.add(inner, source, out=du_in)
        if not dirichlet:
            du[0] = flux[0] / dx + h_0 * v[0]
            du[-1] = -flux[-1] / dx + h_m * v[-1]
        return du

    # the interface core runs under the loop's errstate, and the blow-up
    # test below reports an overflow or an inf - inf, not numpy
    t = 0.0
    with np.errstate(all="ignore"):
        for step in range(1, n_steps + 1):
            t_next = step * dt if step < n_steps else grid.t_final
            if dirichlet:
                left, right = next(bounds)
            u, u_next = now[0], after[0]
            if method == "explicit":
                np.multiply(dt, rate(*now), out=du)
                np.add(u, du, out=u_next)
            else:
                iterate = u.copy()
                for _ in range(200):
                    candidate = u + dt * rate(iterate, iterate[:-1],
                                              iterate[1:], iterate[1:-1])
                    if dirichlet:
                        candidate[0], candidate[-1] = left, right
                    new = 0.5 * iterate + 0.5 * candidate  # damped fixed point
                    delta = float(np.max(np.abs(new - iterate)))
                    iterate = new
                    if delta <= 1e-12 * (1 + float(np.max(np.abs(iterate)))):
                        break
                else:
                    raise ConvergenceError(
                        f"implicit iteration did not converge at t={t_next:g}")
                u_next[:] = iterate

            if dirichlet:
                u_next[0], u_next[-1] = left, right

            size = np.maximum.reduce(np.abs(u_next, out=u_abs))
            if not size <= BLOWUP_THRESHOLD:  # NaN fails too
                partial = Field(xs, np.asarray(times), np.asarray(levels))
                raise BlowUpError(f"solution blew up at t={t_next:g}", partial)

            now, after, t = after, now, t_next
            if step % store_every == 0 or step == n_steps:
                times.append(t)
                levels.append(u_next.copy())

    return Field(xs, np.asarray(times), np.asarray(levels))


# ---------------------------------------------------------------------------
# reduced ODEs: generic integration and shooting (no closed-form catalog)


@functools.lru_cache(maxsize=64)
def _rk4_step(residual: Expression, key: str):
    """One classical RK4 step of ``residual = 0`` as one compiled tape.

    The tape takes the step start ``w``, ``y`` = phi, ``v`` = phi_w and the
    step ``h``, and returns (y', v', a1, a2, a3, a4).  Stage i solves for
    phi_ww = (-b)/a_i, b = r(phi_ww=0) and a_i = r(phi_ww=1) - b, and the
    caller checks each a_i.  Raw nodes in the association ``(0.5*h)*k`` and
    ``(h/6)*(((k1+2*k2)+2*k3)+k4)`` give the bits of the same step in
    Python floats.  ``key`` is ``repr(residual)``: trees that differ only
    in the sign of a zero constant compare equal.
    """
    foreign = residual.free_symbols() - {"w", "phi", "phi_w", "phi_ww"}
    if foreign:  # else the step's own y, v or h could capture one
        raise UnboundSymbolError(f"unbound symbol {min(foreign)!r}")
    at0 = substitute(residual, {"phi_ww": 0.0})
    at1 = substitute(residual, {"phi_ww": 1.0})

    def phi_ww(w, y, v):
        # stage values are never a number or a negation, so substituting
        # them folds nothing and keeps the residual's own operations
        point = {"w": w, "phi": y, "phi_w": v}
        b = substitute(at0, point)
        a = Sub(substitute(at1, point), b)
        return Div(Neg(b), a), a

    w, y, v, h = Sym("w"), Sym("y"), Sym("v"), Sym("h")
    half, two = Mul(Num(0.5), h), Num(2.0)
    k1v, a1 = phi_ww(w, y, v)
    k2y = Add(v, Mul(half, k1v))
    k2v, a2 = phi_ww(Add(w, half), Add(y, Mul(half, v)), k2y)
    k3y = Add(v, Mul(half, k2v))
    k3v, a3 = phi_ww(Add(w, half), Add(y, Mul(half, k2y)), k3y)
    k4y = Add(v, Mul(h, k3v))
    k4v, a4 = phi_ww(Add(w, h), Add(y, Mul(h, k3y)), k4y)
    sixth = Div(h, Num(6.0))

    def combine(start, k1, k2, k3, k4):
        return Add(start, Mul(sixth, Add(Add(Add(k1, Mul(two, k2)),
                                             Mul(two, k3)), k4)))

    return compile_expressions(combine(y, v, k2y, k3y, k4y),
                               combine(v, k1v, k2v, k3v, k4v),
                               a1, a2, a3, a4)


def _rk4_core(reduction):
    """The positional core of the reduction's RK4 step, in (w, y, v, h)."""
    if reduction.reduced is None:
        raise NumericError("algebraic reduction has no ODE to integrate")
    step = _rk4_step(reduction.reduced, repr(reduction.reduced))
    return step.bind(("w", "y", "v", "h"))


def _march(step, w0: float, phi0: float, dphi0: float, w_end: float,
           steps: int):
    """RK4 from ``w0`` to ``w_end`` by calls of the core ``step``.

    The values bound are ``np.float64`` scalars, as ``run`` would bind
    them, under one errstate for the whole march, so the bits are those of
    the tape.  Each step's a1..a4 are checked in stage order.
    """
    if steps < 1 or w_end == w0:
        raise NumericError("need w_end != slice start and steps >= 1")
    hstep = (w_end - w0) / steps
    h = np.float64(hstep)
    ws = np.empty(steps + 1)
    phis = np.empty(steps + 1)
    slopes = np.empty(steps + 1)
    w, y, v = w0, np.float64(float(phi0)), np.float64(float(dphi0))
    ws[0], phis[0], slopes[0] = w, y, v
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            y, v, *coefficients = step(np.float64(w), y, v, h)
            for stage, a in enumerate(coefficients):
                if not math.isfinite(a) or a == 0.0:
                    at = (w, w + 0.5 * hstep, w + 0.5 * hstep,
                          w + hstep)[stage]
                    raise NumericError("reduced equation is degenerate in "
                                       f"phi_ww at w={at:g}")
            w = w0 + k * hstep
            if not (math.isfinite(y) and math.isfinite(v)):
                raise NumericError(
                    f"reduced-ODE integration blew up at w={w:g}")
            ws[k], phis[k], slopes[k] = w, y, v
    return ws, phis, slopes


def integrate_reduced_ode(reduction, phi0: float, dphi0: float,
                          w_end: float, steps: int = 400):
    """March a second-order reduced equation with classical RK4.

    ``reduction`` carries the residual in (w, phi, phi_w, phi_ww); the
    residual is linear in phi_ww, so the second derivative is isolated
    numerically at each stage.  Each step is one call of a tape compiled
    once per residual.  Returns (w, phi, phi_w) arrays from the
    reduction's slice start to ``w_end``.
    """
    return _march(_rk4_core(reduction), reduction.slice_range[0], phi0,
                  dphi0, w_end, steps)


#: ITP constants (Oliveira & Takahashi, "An Enhancement of the Bisection
#: Method Average Performance Preserving Minmax Optimality", ACM TOMS
#: 47(1), 2021): the truncation is kappa1 * width**kappa2 with kappa1 =
#: _ITP_KAPPA1 / (initial width), and _ITP_N0 is the number of steps
#: allowed beyond bisection's
_ITP_KAPPA1 = 0.2
_ITP_KAPPA2 = 2.0
_ITP_N0 = 1


def _bracketed_root(f, lo: float, hi: float, f_lo: float, f_hi: float,
                    tol: float) -> float:
    """Root of ``f`` in [lo, hi] by ITP steps (interpolate, truncate,
    project).

    ``f_lo`` and ``f_hi`` are ``f`` at the ends, of opposite signs or zero;
    a zero end is returned as it is.  Each step evaluates ``f`` once, at a
    point strictly inside the bracket: the regula falsi point, moved toward
    the midpoint by the truncation and then projected to within
    ``width0 * 2**(N0 - 1 - j) - width / 2`` of it (clamped at 0) on step j.
    That is ITP's ``eps * 2**(n_max - j) - width / 2`` with ``eps`` set so
    that bisection needs exactly ``n_max - N0`` steps, which spares a
    relative ``tol`` an absolute ``eps``.  So after k steps the bracket is
    no wider than bisection's after k - N0, and the search takes at most
    N0 = 1 step more than bisection.
    It stops when ``hi - lo <= tol * max(1, |mid|)``, when no float lies
    strictly between ``lo`` and ``hi``, or at an exact zero, and returns
    the bracket's midpoint (the zero itself in the last case).
    """
    lo, hi, f_lo, f_hi = float(lo), float(hi), float(f_lo), float(f_hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    width0 = hi - lo
    kappa1 = _ITP_KAPPA1 / width0
    j = 0
    while True:
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width <= tol * max(1.0, abs(mid)) or math.nextafter(lo, hi) == hi:
            return mid
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        sigma = math.copysign(1.0, mid - x)
        delta = kappa1 * width ** _ITP_KAPPA2
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        radius = max(0.0, width0 * 2.0 ** (_ITP_N0 - 1 - j) - 0.5 * width)
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        if not lo < x < hi:
            # rounding, or a non-finite value of f, put x on or past an end
            x = mid
        f_x = float(f(x))
        j += 1
        if f_x == 0.0:
            return x
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x


def shoot_reduced_ode(reduction, phi0: float, w_end: float, phi_end: float,
                      slope_bracket: tuple, steps: int = 400,
                      tol: float = 1e-10) -> float:
    """Initial slope hitting phi(w_end) = phi_end, by ITP shooting.

    ``slope_bracket`` must straddle the target (the endpoint misses at the
    two bracket slopes have opposite signs, or one is zero).  The two ends
    cost one RK4 integration each, and so does each ITP step.  The search
    stops when the bracket is no wider than ``tol * max(1, |slope|)``, in
    at most one step more than bisection would take.
    """
    lo, hi = float(slope_bracket[0]), float(slope_bracket[1])
    step, w0 = _rk4_core(reduction), reduction.slice_range[0]

    def miss(slope: float) -> float:
        _, phis, _ = _march(step, w0, phi0, slope, w_end, steps)
        return phis[-1] - phi_end

    f_lo, f_hi = miss(lo), miss(hi)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo * f_hi > 0:
        raise NumericError("slope bracket does not straddle the target")
    return _bracketed_root(miss, lo, hi, f_lo, f_hi, tol)


# ---------------------------------------------------------------------------
# residual of candidate solutions on a sampled box


def pde_residual_grid(eq: FinEquation, s: Solution, region, samples: int = 100,
                      seed: int = 42) -> float:
    """Max relative residual of a solution over a sampled (t, x) box."""
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
    return float(np.max(np.abs(r) / scale))
