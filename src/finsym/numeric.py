"""Finite-difference oracle and reduced-ODE integration.

Of the nine CLI subcommands only ``simulate`` imports this module.  The
sampled residual of a candidate solution, :func:`pde_residual_grid`,
lives in :mod:`finsym.model` beside the residual expression it samples,
so ``exact`` and ``residual`` need not load the solver; it is re-exported
here, as :func:`pde_residual_expression` is.

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
that by dx for the flux D u_x, and each explicit step is checked
against those D.  The flux lies between two walls, +0.0 at the left
and -0.0 at the right, so one stencil gives the rate at every node, a
no-flux end included, and one update u + dt * rate serves the explicit
step and each implicit sweep; on a Dirichlet solve it writes the
interior nodes only.  The Dirichlet boundary values get one tape, called
once per ``_BOUNDARY_BLOCK`` steps.  An explicit step writes every
stencil and update into arrays allocated once per solve, through ufuncs
bound once per solve with the output passed by position and dx and dt
passed as arrays, so a step allocates only what the interface core
returns.  The states of a block of ``_CHECK_BLOCK`` steps (fewer where m
is large, so the block writes at most ``_CHECK_FLOATS`` = 2^14 floats,
or one row: 64 steps up to 256 nodes) are the rows of one array, each
step writing the row after its own.  A Dirichlet solve writes the
block's boundary values into the two end columns of its rows before its
steps.  The march keeps the D values the core returns for the block and
reduces them, and |u| over the rows written, once per block.  A block
that fails is scanned step by step, so the first failing step raises
what a check after every step would.  An implicit sweep checks its D at
once, and writes its row's ends after it copies its iterate there.
One whole RK4 step of a reduced equation is one tape, compiled once per
residual and kept for later integrations of the same residual; a shoot
looks it up once and marches every probe with it.

The two loops call their tape's positional core, not the checked
``tape(bindings)``: each holds one ``np.errstate(all="ignore")`` around
the whole loop, so each call skips the tape's per-call set-up and the
bits are the same.  The FD loop binds the (u_l, u_r) views of its
float64 state (``tape.bind(order)``), a core that takes the tape's
constants as 0-d arrays.  The RK4 march runs each step on Python floats
(``tape.bind(order, floats=True)``) and so pays none of numpy's cost per
scalar operation; a step where the float form raises (numpy would give
inf or NaN there) runs again through the tape itself, ``tape(bindings)``,
on ``np.float64`` values.
``bind`` generates each core as straight-line code once per order and
keeps it on the tape, where ``tape(bindings)`` interprets the steps:
the RK4 tape, kept per residual, generates its core once for all the
integrations and shoots of that residual, and the interface tape, kept
per D, generates its core once for every grid and boundary that D is
solved on.
"""
from __future__ import annotations

import functools
import io
import math

import numpy as np

from .expressions import (
    Add, Div, Expression, Mul, Neg, Num, Sub, Sym, UnboundSymbolError,
    compile_expressions, substitute,
)
from .model import (
    FinEquation, ModelError, NumericError, _record, pde_residual_expression,
    pde_residual_grid,
)

#: pde_residual_expression and pde_residual_grid are model's, re-exported
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
_CHECK_BLOCK = 64  # explicit steps per reduction of the step checks
_CHECK_FLOATS = 1 << 14  # fewer steps a check block on a larger grid


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


class Grid(_record("Grid", "a b m t_final dt", defaults=(None,))):
    """Uniform space-time grid on [a, b] x [0, T] with m nodes; dt None
    lets :func:`solve_pde` choose it."""
    __slots__ = ()

    def __new__(cls, a: float, b: float, m: int, t_final: float,
                dt: float | None = None):
        if not -math.inf < a < b < math.inf:
            raise ModelError("grid requires finite a < b")
        if m < 8:
            raise ModelError("grid requires at least 8 nodes")
        if not 0 <= t_final < math.inf:
            raise ModelError("time horizon must be finite and nonnegative")
        if dt is not None and not 0 < dt < math.inf:
            raise ModelError("dt must be positive and finite")
        return super().__new__(cls, a, b, m, t_final, dt)

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.m - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.m)


class DirichletBC(_record("DirichletBC", "left right")):
    """Boundary values u(t, a) = left and u(t, b) = right, expressions in t."""
    __slots__ = ()


class NoFluxBC(_record("NoFluxBC", "")):
    """A wall of zero flux at each end."""
    __slots__ = ()


class Field(_record("Field", "x times values")):
    """Stored time levels of a numerical solution: ``values`` has shape
    (len(times), len(x))."""
    __slots__ = ()

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("t,x,u\n")
        for k, t in enumerate(self.times):
            for j, xv in enumerate(self.x):
                out.write(f"{float(t)!r},{float(xv)!r},"
                          f"{float(self.values[k, j])!r}\n")
        return out.getvalue()


def _boundary_values(boundary: DirichletBC, n_steps: int, dt: float,
                     t_final: float, rows: int):
    """(left, right) at the step times of each block of ``rows`` steps, as
    two arrays, from one tape call per ``_BOUNDARY_BLOCK`` steps."""
    values_at = compile_expressions(boundary.left, boundary.right)
    left = right = np.empty(0)  # the values of steps not yet yielded
    for start in range(1, n_steps + 1, _BOUNDARY_BLOCK):
        stop = min(start + _BOUNDARY_BLOCK, n_steps + 1)
        k = np.arange(start, stop)
        t = np.where(k < n_steps, k * dt, t_final)  # the last at t_final
        more_left, more_right = values_at({"t": t})
        left = np.concatenate((left, more_left))
        right = np.concatenate((right, more_right))
        # whole blocks, and at the end the last block, whole or not
        done = len(left) if stop > n_steps else len(left) // rows * rows
        for i in range(0, done, rows):
            yield left[i:i + rows], right[i:i + rows]
        left, right = left[done:], right[done:]


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
    :class:`NoFluxBC` (a wall of zero flux at each end);
    anything else raises :class:`ModelError`.
    When ``grid.dt`` is None, dt is 0.45 dx^2 / max|D| on the initial
    interfaces.  Each explicit step is held to dt max|D| / dx^2 <= 1/2 on
    the D values it computes, and to max|u| <= 1e12 after it.  Both are
    checked once per block of up to 64 steps; in a block that fails, the
    first failing step raises, its D check ahead of its blow-up test, as
    a check after every step would: a :class:`StabilityError` names dt
    and the time t at the start of the step, a
    :class:`CoefficientFailure` a non-finite D, and a
    :class:`BlowUpError` the time after the step, with the levels stored
    before it.  The steps marched past it are dropped.  An implicit
    sweep checks its D at once.
    The interface tape is kept per D (the ``repr`` of its tree), so
    solves of one D on any grid share one compile.  The states of a block
    are the rows of one array, at most ``_CHECK_FLOATS`` = 2^14 floats or
    one row, and each step writes its stencil and update into work arrays
    allocated once per solve; a Dirichlet solve writes a block's ends into
    its rows once, before its steps, and each step writes the interior.
    The levels stored are copies, never a row.
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

    # the work arrays and their views, made once: each step writes every
    # stencil and update into them, passing out by position
    m = grid.m
    # the interface flux D u_x between two walls: f - (+0.0) is f and
    # (-0.0) - f is -f, to the bit, so one stencil gives the no-flux ends
    # f/dx + h u and -f/dx + h u; a Dirichlet update writes the interior
    flux = np.zeros(m + 1)
    flux[-1] = -0.0
    flux_in, flux_l, flux_r = flux[1:-1], flux[:-1], flux[1:]
    du = np.empty(m)  # the rate, then dt times it
    source = np.empty(m)  # h u
    # dx and dt as operands: a ufunc takes an array in fewer cycles than a
    # Python float, and the quotient and the product are the same bits
    dx_nodes, dt_nodes = np.full(m, dx), np.full(m, dt)
    dx_in = dx_nodes[1:]
    # the nodes an update writes: a Dirichlet solve's ends are the
    # boundary values, written into a block's rows before its steps
    written = slice(1, -1) if dirichlet else slice(None)
    du_written = du[written]
    add, divide, multiply, subtract = (
        np.add, np.divide, np.multiply, np.subtract)
    largest = np.maximum.reduce
    # a block's states are the rows of one array: row 0 holds the state at
    # the block's start, and step j writes row j from row j - 1 through
    # that row's (v, u_l, u_r) views.  An explicit block writes at most
    # _CHECK_FLOATS floats, or one row where m is larger; an implicit
    # block is one step
    explicit = method == "explicit"
    rows = max(1, min(_CHECK_BLOCK, _CHECK_FLOATS // m)) if explicit else 1
    block = np.empty((rows + 1, m))
    block[0] = u
    # per step, its row and update's arguments: the nodes it writes of that
    # row, and the state it reads as the row before's views
    moves = [(v_next, (v_next[written], v[written], v, v[:-1], v[1:]))
             for v, v_next in zip(block, block[1:])]
    if dirichlet:
        bounds = _boundary_values(boundary, n_steps, dt, grid.t_final, rows)
        ends = block[1:, 0], block[1:, -1]
    t_final = grid.t_final

    def update(out, u, v, v_l, v_r):
        """out = u + dt * rate(v) on the nodes written; returns D at the
        interfaces, for the caller to check."""
        d_half, flux_dx = interfaces(v_l, v_r)
        divide(flux_dx, dx_in, flux_in)
        subtract(flux_r, flux_l, du)
        divide(du, dx_nodes, du)
        multiply(h_nodes, v, source)
        add(du, source, du)
        multiply(dt_nodes, du, du)
        add(u, du_written, out)
        return d_half

    def time_at(step: int) -> float:
        return step * dt if step < n_steps else t_final

    def check_d(max_d, step: int):
        """Raise for a step whose max|D| breaks the bound; NaN and inf do."""
        if not max_d <= d_bound:
            if not math.isfinite(max_d):
                raise CoefficientFailure("D not finite at an interface")
            raise StabilityError(
                f"explicit step dt={dt:g} exceeds the stability bound "
                f"{_EULER_LIMIT * dx * dx / float(max_d):g} at "
                f"t={time_at(step - 1):g}; "
                "pass a smaller dt or method='implicit'")

    # the interface core runs under the loop's errstate, and the blow-up
    # test below reports an overflow or an inf - inf, not numpy
    with np.errstate(all="ignore"):
        for start in range(1, n_steps + 1, rows):
            stop = min(start + rows, n_steps + 1)
            done = stop - start
            if dirichlet:
                left, right = next(bounds)
                ends[0][:done], ends[1][:done] = left, right
            d_halves = []  # the D the interface core returned, step by step
            for step, (u_next, move) in zip(range(start, stop), moves):
                if explicit:
                    d_halves.append(update(*move))
                else:
                    u_written, iterate = move[1:3]
                    for _ in range(200):  # a damped fixed point
                        candidate = np.empty(m)
                        if dirichlet:
                            candidate[0], candidate[-1] = left[0], right[0]
                        d_half = update(candidate[written], u_written,
                                        iterate, iterate[:-1], iterate[1:])
                        check_d(largest(np.abs(d_half)), step)
                        new = 0.5 * iterate + 0.5 * candidate
                        delta = float(largest(np.abs(new - iterate)))
                        iterate = new
                        magnitude = float(largest(np.abs(iterate)))
                        if delta <= 1e-12 * (1 + magnitude):
                            break
                    else:
                        raise ConvergenceError(
                            "implicit iteration did not converge at "
                            f"t={time_at(step):g}")
                    u_next[:] = iterate
                    if dirichlet:
                        u_next[0], u_next[-1] = left[0], right[0]
                    d_halves.append(d_half)  # checked, so it passes again
                if step % store_every == 0 or step == n_steps:
                    times.append(time_at(step))
                    levels.append(u_next.copy())

            # the block's checks in one reduction each, over the rows it
            # wrote; when one fails, the first failing step raises, D ahead
            # of the blow-up test, and the steps marched past it are dropped
            max_d = largest(np.abs(d_halves), 1)
            size = largest(np.abs(block[1:done + 1]), 1)
            if largest(max_d) <= d_bound and largest(size) <= BLOWUP_THRESHOLD:
                block[0] = block[done]
                continue
            for step, max_d_step, size_step in zip(range(start, stop), max_d,
                                                   size):
                check_d(max_d_step, step)
                if not size_step <= BLOWUP_THRESHOLD:  # NaN fails too
                    kept = 1 + (step - 1) // store_every  # stored before it
                    partial = Field(xs, np.asarray(times[:kept]),
                                    np.asarray(levels[:kept]))
                    raise BlowUpError(
                        f"solution blew up at t={time_at(step):g}", partial)

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


#: the parameters of the RK4 step's cores, in order
_RK4_ORDER = ("w", "y", "v", "h")


def _rk4_tape(reduction):
    """The tape of the reduction's RK4 step, kept per residual."""
    if reduction.reduced is None:
        raise NumericError("algebraic reduction has no ODE to integrate")
    return _rk4_step(reduction.reduced, repr(reduction.reduced))


def _march(tape, w0: float, phi0: float, dphi0: float, w_end: float,
           steps: int):
    """RK4 from ``w0`` to ``w_end``, one call of a core of ``tape`` a step.

    Each step runs on Python floats, through the tape's float core.  A
    step where that core raises (a division by zero, a ``**`` that
    overflows or has no real value) runs again through the tape itself,
    on ``np.float64`` values, which gives numpy's inf or NaN there.  The
    two do the same C operations, so the bits are those of the tape
    either way, but for the sign of a NaN, which no march stores: a NaN
    output raises.  One errstate holds for the whole march, for the
    ufuncs.  Each step's a1..a4 are checked in stage order.
    """
    if steps < 1 or w_end == w0:
        raise NumericError("need w_end != slice start and steps >= 1")
    fast = tape.bind(_RK4_ORDER, floats=True)
    inf = math.inf
    hstep = (w_end - w0) / steps
    w, y, v = float(w0), float(phi0), float(dphi0)
    ws, phis, slopes = [w], [y], [v]
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            try:
                y, v, a1, a2, a3, a4 = fast(w, y, v, hstep)
            except (ArithmeticError, ValueError):
                y, v, a1, a2, a3, a4 = tape(
                    {"w": w, "y": y, "v": v, "h": hstep})
                y, v = float(y), float(v)
            # each a_i finite and nonzero (NaN fails every comparison)
            if not (0.0 < abs(a1) < inf and 0.0 < abs(a2) < inf
                    and 0.0 < abs(a3) < inf and 0.0 < abs(a4) < inf):
                stage = next(i for i, a in enumerate((a1, a2, a3, a4))
                             if not 0.0 < abs(a) < inf)
                at = (w, w + 0.5 * hstep, w + 0.5 * hstep, w + hstep)[stage]
                raise NumericError("reduced equation is degenerate in "
                                   f"phi_ww at w={at:g}")
            w = w0 + k * hstep
            if not (math.isfinite(y) and math.isfinite(v)):
                raise NumericError(
                    f"reduced-ODE integration blew up at w={w:g}")
            ws.append(w)
            phis.append(y)
            slopes.append(v)
    return np.array(ws), np.array(phis), np.array(slopes)


def integrate_reduced_ode(reduction, phi0: float, dphi0: float,
                          w_end: float, steps: int = 400):
    """March a second-order reduced equation with classical RK4.

    ``reduction`` carries the residual in (w, phi, phi_w, phi_ww); the
    residual is linear in phi_ww, so the second derivative is isolated
    numerically at each stage.  Each step is one call of a tape compiled
    once per residual.  Returns (w, phi, phi_w) arrays from the
    reduction's slice start to ``w_end``.
    """
    return _march(_rk4_tape(reduction), reduction.slice_range[0], phi0,
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
    tape, w0 = _rk4_tape(reduction), reduction.slice_range[0]

    def miss(slope: float) -> float:
        _, phis, _ = _march(tape, w0, phi0, slope, w_end, steps)
        return phis[-1] - phi_end

    f_lo, f_hi = miss(lo), miss(hi)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo * f_hi > 0:
        raise NumericError("slope bracket does not straddle the target")
    return _bracketed_root(miss, lo, hi, f_lo, f_hi, tol)
