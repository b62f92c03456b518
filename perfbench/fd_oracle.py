"""fd-oracle: finite-difference and reduced-ODE solves against closed forms.

A few expressions are evaluated thousands of times: on m-vectors inside
the explicit step loop, and on scalars inside RK4 and bisection
shooting.  Each problem class appears a fixed number of times per round,
and every solve takes a fixed number of steps, so the work per round does
not depend on the seeded parameters.  Closed forms are numpy functions
written here.  The Dirichlet problems are solved in pairs, on m and
2m - 1 nodes to the same final time, and the pair passes only when the
coarse error is about four times the fine one: a scheme that lost its
second order, or a solver that returned its initial data, fails.
"""
from __future__ import annotations

import numpy as np

from finsym import (
    DirichletBC, Grid, build_reduction, discrete_balance_error,
    equation_from_json, evaluate, integrate_reduced_ode, parse,
    shoot_reduced_ode, solve_pde,
)

from common import Workload, r3, rng_for
from verify_table import case4_amplitude, case6_amplitude, h1_np

NAME = "fd-oracle"

#: explicit steps of a coarse solve: dt = STEP_FRACTION * 0.45 dx^2 / max|D|
#: on the closed form's range, safely inside finsym's stability bound; the
#: fine solve of a pair halves dx and takes 4 * STEPS steps of dt / 4
STEP_FRACTION = 0.5
STEPS = 100
#: coarse node counts of the stationary pairs, with pairs per round
LADDER = ((41, 2), (81, 2), (161, 1))
#: each solve: max error <= ERR_FACTOR * dx^2 * max|u|
ERR_FACTOR = 0.5
#: second order: coarse error / fine error must lie in this range
ORDER_RATIO = (3.5, 4.5)
#: steps of a no-flux run
NOFLUX_STEPS = 300
#: no-flux drift of the decaying mass <= DRIFT_FACTOR * dx^2 * M(0)
DRIFT_FACTOR = 0.1
RK4_STEPS = 400
RK4_TOL = 1e-8
#: shooting solves per round: the slowest items, which set the tail
SHOOTS = 4
SHOOT_STEPS = 80
SHOOT_TOL = 1e-8
SHOOT_REL = 1e-4


def _dt(dx, max_d):
    return STEP_FRACTION * 0.45 * dx * dx / max_d


def build(seed: int) -> Workload:
    rng = rng_for(seed, NAME)
    wl = Workload(NAME)
    seen = wl.seen
    seen.update(grids=[], odes=[])
    add = wl.add

    k = 0
    for m, pairs in LADDER:
        for _ in range(pairs):
            add("stationary", k, _stationary(m, r3(rng, 0.5, 2.0),
                                             r3(rng, 0.5, 2.0), seen))
            k += 1
    for k in range(2):
        add("moving", k, _moving(41, r3(rng, 0.5, 2.0), seen))
    for k in range(2):
        c = r3(rng, 0.5, 2.0) * (1 if k else -1)
        add("noflux", k, _noflux(81, r3(rng, 0.5, 2.0), c, r3(rng, 0.5, 2.0)))
    for k in range(2):
        add("rk4-61", k, _rk4_61(int(rng.integers(0, 2)), r3(rng, 0.5, 2.0),
                                 r3(rng, 2.0, 3.0), seen))
    for k in range(SHOOTS):
        # the RK4 items warm the code path shooting repeats
        add("shoot-41", k, _shoot_41(r3(rng, 1.8, 2.2)), warm=False)
    wl.probe = lambda tr: _probe(tr, seen)
    return wl


def _solve(tr, eq, initial, bc, grid, steps, seen):
    with tr.span("numeric.solve_pde", work=steps):
        field = solve_pde(eq, initial, bc, grid)
    if tr.counting:
        seen["grids"].append((eq, field.values[0]))
    return field


def _order_pair(tr, eq, texts, a, b, m, dt, exact, seen):
    """Dirichlet solves on m and 2m - 1 nodes to the same final time.

    ``texts`` are the initial data and the two boundary values; ``exact``
    is the closed form u(t, x).  True when each error is within
    ERR_FACTOR dx^2 max|u| and the two errors shrink as dx^2.
    """
    errors = []
    for nodes, steps, step in ((m, STEPS, dt), (2 * m - 1, 4 * STEPS, dt / 4)):
        initial, left, right = (parse(t) for t in texts)
        field = _solve(tr, eq, initial, DirichletBC(left, right),
                       Grid(a, b, nodes, steps * step, step), steps, seen)
        want = exact(field.times[-1], field.x)
        dx = (b - a) / (nodes - 1)
        errors.append(np.max(np.abs(field.values[-1] - want)))
        if not errors[-1] <= ERR_FACTOR * dx * dx * np.max(np.abs(want)):
            return False
    low, high = ORDER_RATIO
    return bool(errors[1] > 0 and low <= errors[0] / errors[1] <= high)


def _stationary(m, n, q, seen):
    """u = c x^((q+2)/n) is a steady state of u_t = (u^n u_x)_x - x^q u."""
    c, a = case4_amplitude(n, q), (q + 2.0) / n
    u_max = c * 2.0 ** a
    dt = _dt(1.0 / (m - 1), max(c ** n, u_max ** n))
    doc = {"D": {"family": "power_u", "n": n},
           "h": {"family": "power_x", "q": q, "eps": -1}}
    texts = (f"{c!r}*x^{a!r}", repr(c), repr(u_max))

    def run(tr):
        return _order_pair(tr, equation_from_json(doc), texts, 1.0, 2.0, m,
                           dt, lambda t, x: c * x ** a, seen)
    return run


def _moving(m, big_c, seen):
    """u = C e^(t x) solves u_t = (u^-1 u_x)_x + x u (conditional symmetry)."""
    dt = _dt(1.0 / (m - 1), 1.0 / big_c)  # D = 1/u <= 1/C while u grows
    doc = {"D": {"family": "power_u", "n": -1}, "h": {"expr": "x"}}
    texts = (repr(big_c), f"{big_c!r}*exp(0.5*t)", f"{big_c!r}*exp(1.5*t)")

    def run(tr):
        return _order_pair(tr, equation_from_json(doc), texts, 0.5, 1.5, m,
                           dt, lambda t, x: big_c * np.exp(t * x), seen)
    return run


def _noflux(m, n, c, a):
    """Mass of e^(-ct) u is conserved exactly; the scheme drifts O(dx^2)."""
    dx = 1.0 / (m - 1)
    dt = _dt(dx, (1.0 + a / 4.0) ** n)  # initial data 1 + a x(1-x) <= 1 + a/4
    mass0 = 1.0 + a / 6.0
    doc = {"D": {"family": "power_u", "n": n},
           "h": {"family": "constant", "c": c}}
    text = f"1+{a!r}*x*(1-x)"

    def run(tr):
        eq = equation_from_json(doc)
        with tr.span("conservation.discrete_balance_error"):
            drift = discrete_balance_error(
                eq, parse(text), Grid(0.0, 1.0, m, NOFLUX_STEPS * dt, dt))
        return bool(drift <= DRIFT_FACTOR * dx * dx * mass0)
    return run


def _rk4_61(p, q, w_end, seen):
    """phi = u6^(-1/3) along x = w solves 3 phi'' = h1(w) phi^-3."""
    c6 = case6_amplitude(p, q)

    def phi(w):
        return c6 ** (-1.0 / 3.0) * (w * w + p) ** 0.5 * h1_np(w, p, q) ** 0.25

    def dphi(w):
        return phi(w) * (4.0 * w + q) / (4.0 * (w * w + p))

    params = {"p": p, "q": q, "eps": 1}

    def run(tr):
        red = build_reduction(6, "1", params)
        w0 = red.slice_range[0]
        with tr.span("numeric.integrate_reduced_ode", work=RK4_STEPS):
            ws, phis, _ = integrate_reduced_ode(red, phi(w0), dphi(w0), w_end,
                                                steps=RK4_STEPS)
        if tr.counting:
            seen["odes"].append((red, ws, phis))
        return bool(np.max(np.abs(phis - phi(ws))) <= RK4_TOL)
    return run


def _shoot_41(w_end):
    """phi = w^6/225 solves phi'' = 2 w sqrt(phi) (case 4.1, n=q=1, eps=-1)."""
    params = {"n": 1, "q": 1, "eps": -1}

    def run(tr):
        red = build_reduction(4, "1", params)
        w0 = red.slice_range[0]
        slope = 6.0 * w0 ** 5 / 225.0
        with tr.span("numeric.shoot_reduced_ode"):
            got = shoot_reduced_ode(red, w0 ** 6 / 225.0, w_end,
                                    w_end ** 6 / 225.0, (0.0, 10.0 * slope),
                                    steps=SHOOT_STEPS, tol=SHOOT_TOL)
        return abs(got - slope) <= SHOOT_REL * slope
    return run


def _probe(tr, seen):
    """D on the m-1 midpoints of each solve; reduced residuals at a point."""
    for eq, u0 in seen["grids"]:
        d = eq.d_expr()
        mid = 0.5 * (u0[:-1] + u0[1:])
        with tr.span("expressions.evaluate_grid"):
            evaluate(d, {"u": mid})
    for red, ws, phis in seen["odes"]:
        at = {"w": float(ws[1]), "phi": float(phis[1]), "phi_w": 0.5,
              "phi_ww": 0.0}
        for _ in range(8):
            with tr.span("expressions.evaluate_scalar"):
                evaluate(red.reduced, at)
