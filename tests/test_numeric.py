import numpy as np
import pytest

from finsym.expressions import evaluate, parse
from finsym.model import (
    ConstantH, FinEquation, FreeH, ModelError, PowerU, PowerX, Solution,
)
from finsym.numeric import (
    BlowUpError, CoefficientFailure, ConvergenceError, DirichletBC, Grid,
    NoFluxBC, NumericError, StabilityError, pde_residual_grid, solve_pde,
)

EQ4 = FinEquation(PowerU(1), PowerX(1, -1))  # stationary solution x^3/15
EXACT4 = parse("x^3/15")
BC4 = DirichletBC(parse("1/15"), parse("8/15"))


def test_zero_horizon_returns_initial_sample():
    g = Grid(1.0, 2.0, 21, 0.0)
    f = solve_pde(EQ4, EXACT4, BC4, g)
    assert f.times.tolist() == [0.0]
    assert np.allclose(f.values[0], evaluate(EXACT4, {"x": f.x}))


@pytest.mark.parametrize("t_final", [0.0, 0.01])
def test_unknown_method_is_refused_before_any_work(t_final):
    with pytest.raises(NumericError, match="unknown method 'bogus'"):
        solve_pde(EQ4, EXACT4, BC4, Grid(1.0, 2.0, 21, t_final),
                  method="bogus")


def test_grid_validation():
    with pytest.raises(NumericError):
        Grid(2.0, 1.0, 21, 1.0)
    with pytest.raises(NumericError):
        Grid(0.0, 1.0, 4, 1.0)
    with pytest.raises(NumericError):
        Grid(0.0, 1.0, 21, 1.0, dt=-0.1)
    nan, inf = float("nan"), float("inf")
    for args, dt in [((0.0, inf, 21, 1.0), None), ((-inf, 1.0, 21, 1.0), None),
                     ((0.0, 1.0, 21, nan), None), ((0.0, 1.0, 21, inf), 1e-3),
                     ((0.0, 1.0, 21, 1.0), nan), ((0.0, 1.0, 21, 1.0), inf)]:
        with pytest.raises(NumericError):
            Grid(*args, dt=dt)


def test_stationary_solution_accuracy_and_order():
    errs = {}
    for m in (41, 81):
        f = solve_pde(EQ4, EXACT4, BC4, Grid(1.0, 2.0, m, 0.1))
        exact = evaluate(EXACT4, {"x": f.x})
        errs[m] = float(np.max(np.abs(f.values[-1] - exact)))
    assert errs[81] <= 1e-4
    assert errs[41] / errs[81] >= 3.5


def test_moving_solution_tracks_exact():
    eq = FinEquation(PowerU(-1), FreeH(parse("x")))
    bc = DirichletBC(parse("2*exp(0.5*t)"), parse("2*exp(1.5*t)"))
    f = solve_pde(eq, parse("2"), bc, Grid(0.5, 1.5, 81, 0.2))
    exact = evaluate(parse("2*exp(t*x)"), {"t": f.times[-1], "x": f.x})
    assert float(np.max(np.abs(f.values[-1] - exact))) <= 2e-4


def test_explicit_stability_guard():
    with pytest.raises(StabilityError):
        solve_pde(EQ4, EXACT4, BC4, Grid(1.0, 2.0, 81, 0.1, dt=0.1))


def test_implicit_accepts_larger_steps():
    g = Grid(1.0, 2.0, 41, 0.05, dt=5e-4)
    f = solve_pde(EQ4, EXACT4, BC4, g, method="implicit")
    exact = evaluate(EXACT4, {"x": f.x})
    assert float(np.max(np.abs(f.values[-1] - exact))) <= 1e-3


def test_implicit_step_that_does_not_converge_raises():
    # the damped iteration stalls for dt from about 1.02e-3 to 1.22e-3 here
    with pytest.raises(ConvergenceError,
                       match=r"did not converge at t=0\.0010989"):
        solve_pde(EQ4, EXACT4, BC4, Grid(1.0, 2.0, 41, 0.2, dt=1.1e-3),
                  method="implicit")
    f = solve_pde(EQ4, EXACT4, BC4, Grid(1.0, 2.0, 41, 0.2, dt=1e-3),
                  method="implicit")
    exact = evaluate(EXACT4, {"x": f.x})
    assert float(np.max(np.abs(f.values[-1] - exact))) <= 1e-4


def test_nan_diffusivity_raises_coefficient_failure():
    # D = u^0.5 is NaN at the midpoints where the initial data go negative
    eq = FinEquation(PowerU(0.5), PowerX(1, -1))
    for bc in (NoFluxBC(), DirichletBC(parse("-0.5"), parse("0.5"))):
        with pytest.raises(CoefficientFailure):
            solve_pde(eq, parse("x-1.5"), bc, Grid(1.0, 2.0, 21, 0.01))


def test_blow_up_aborts_with_partial_field():
    eq = FinEquation(PowerU(1), ConstantH(60.0))
    g = Grid(0.0, 1.0, 9, 1.0)
    with pytest.raises(BlowUpError) as err:
        solve_pde(eq, parse("1+x"), NoFluxBC(), g)
    partial = err.value.partial
    assert partial is not None
    assert np.all(np.isfinite(partial.values))


def test_deterministic_for_fixed_inputs():
    g = Grid(1.0, 2.0, 41, 0.02)
    a = solve_pde(EQ4, EXACT4, BC4, g)
    b = solve_pde(EQ4, EXACT4, BC4, g)
    assert np.array_equal(a.values, b.values)


def test_csv_export_format():
    g = Grid(1.0, 2.0, 21, 0.0)
    f = solve_pde(EQ4, EXACT4, BC4, g)
    text = f.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 21
    for j, line in enumerate(lines[1:]):
        t, x, u = map(float, line.split(","))  # plain numbers only
        assert (t, x, u) == (0.0, f.x[j], f.values[0, j])


def test_residual_grid_exact_solutions():
    s = Solution(parse("x^3/15"))
    assert pde_residual_grid(EQ4, s, ((0, 1), (1, 2))) <= 1e-12


def test_residual_grid_negative_control():
    eq = FinEquation(PowerU(2), PowerX(-2, 1))
    s = Solution(parse("x"))
    assert pde_residual_grid(eq, s, ((0, 1), (0.5, 2))) > 1e-2


def test_residual_grid_sampling_exits():
    with pytest.raises(NumericError):
        pde_residual_grid(EQ4, Solution(parse("ln(-1-x^2)")), ((0, 1), (1, 2)))
    # finite only for x > 1.8, a fifth of the box
    r = pde_residual_grid(EQ4, Solution(parse("ln(x-1.8)")), ((0, 1), (1, 2)))
    assert np.isfinite(r) and r > 0


def test_residual_grid_rejects_unbound_parameters():
    s = Solution(parse("C*exp(t*x)"), ("C",))
    with pytest.raises(ModelError):
        pde_residual_grid(EQ4, s, ((0, 1), (1, 2)))


def test_integrate_reduced_ode_tracks_closed_form_profile():
    # the stationary reduction of the -4/3 case: 3 phi'' = h1 phi^-3.
    # Its closed-form profile comes from the exact solution u = phi^-3.
    from finsym.numeric import integrate_reduced_ode
    from finsym.reductions import build_reduction, exact_solution
    from finsym.expressions import substitute

    params = {"p": 1, "q": 1, "eps": 1}
    r = build_reduction(6, "1", params)
    u_exact = exact_solution(6, params).expr
    phi_exact = substitute(parse("u^(-1/3)"),
                           {"u": substitute(u_exact, {"x": parse("w")})})
    dphi_exact = phi_exact.diff("w")

    w0 = r.slice_range[0]
    phi0 = float(evaluate(phi_exact, {"w": w0}))
    dphi0 = float(evaluate(dphi_exact, {"w": w0}))
    ws, phis, _ = integrate_reduced_ode(r, phi0, dphi0, 2.5, steps=500)
    want = np.asarray([float(evaluate(phi_exact, {"w": w})) for w in ws])
    assert float(np.max(np.abs(phis - want))) <= 1e-8


def test_shoot_reduced_ode_recovers_exact_slope():
    # phi = x^6/225 solves the stationary power-case reduction with
    # n = 1, q = 1, eps = -1 (phi'' = 2 w sqrt(phi))
    from finsym.numeric import integrate_reduced_ode, shoot_reduced_ode
    from finsym.reductions import build_reduction

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    w0 = r.slice_range[0]
    phi0 = w0 ** 6 / 225.0
    slope = shoot_reduced_ode(r, phi0, 2.0, 2.0 ** 6 / 225.0,
                              slope_bracket=(0.0, 0.01))
    assert slope == pytest.approx(6 * w0 ** 5 / 225.0, rel=1e-6)
    ws, phis, _ = integrate_reduced_ode(r, phi0, slope, 2.0)
    assert phis[-1] == pytest.approx(2.0 ** 6 / 225.0, rel=1e-8)


def _recorded_shooting(monkeypatch, phi_end):
    """Record (slope, endpoint miss) of every integration shooting makes."""
    import finsym.numeric as numeric

    real = numeric.integrate_reduced_ode
    probes = []

    def recording(reduction, phi0, slope, w_end, steps):
        out = real(reduction, phi0, slope, w_end, steps)
        probes.append((slope, out[1][-1] - phi_end))
        return out

    monkeypatch.setattr(numeric, "integrate_reduced_ode", recording)
    return probes


def _bisect(f, lo, hi, tol):
    """Reference bisection, as shooting ran before ITP: (root, calls of f)."""
    f_lo = f(lo)
    f(hi)
    calls = 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        calls += 1
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi), calls


def test_itp_shooting_against_reference_bisection(monkeypatch):
    # seeded brackets and targets on the 4.1 reduction: never more than
    # one integration beyond bisection, every probe strictly inside the
    # bracket of its step, and the same slope to within tol
    from finsym.numeric import integrate_reduced_ode, shoot_reduced_ode
    from finsym.reductions import build_reduction

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    w0 = r.slice_range[0]
    phi0 = w0 ** 6 / 225.0
    rng = np.random.default_rng(29)
    for trial in range(9):
        w_end = rng.uniform(1.5, 2.5)
        true_slope = 6.0 * w0 ** 5 / 225.0 * 10.0 ** rng.uniform(0.0, 3.5)
        lo = true_slope * rng.uniform(0.0, 0.9)
        hi = true_slope * rng.uniform(1.1, 10.0)
        tol = (1e-8, 1e-10, 1e-12)[trial % 3]
        phi_end = integrate_reduced_ode(r, phi0, true_slope, w_end, 40)[1][-1]

        def miss(slope):
            return integrate_reduced_ode(r, phi0, slope, w_end, 40)[1][-1] \
                - phi_end

        want, bisections = _bisect(miss, lo, hi, tol)
        probes = _recorded_shooting(monkeypatch, phi_end)
        got = shoot_reduced_ode(r, phi0, w_end, phi_end, (lo, hi), steps=40,
                                tol=tol)
        monkeypatch.undo()
        assert type(got) is float
        assert len(probes) <= bisections + 1, (trial, len(probes), bisections)
        assert abs(got - want) <= tol * max(1.0, abs(want)), trial
        assert [s for s, _ in probes[:2]] == [lo, hi]
        (a, f_a), (b, _) = probes[:2]
        for slope, f in probes[2:]:
            assert a < slope < b, (trial, a, slope, b)
            if (f < 0) == (f_a < 0):
                a, f_a = slope, f
            else:
                b = slope


@pytest.mark.parametrize("f", [
    lambda x: (x - 0.3) ** 9,
    lambda x: -1.0 if x < 0.3 else 1e6,
    lambda x: np.arctan(50.0 * (x - 0.7)),
], ids=["flat", "step", "steep"])
def test_itp_takes_at_most_one_step_more_than_bisection(f):
    # functions on which regula falsi stalls, so the projection must act
    from finsym.numeric import _bracketed_root

    probes = []

    def recording(x):
        probes.append(x)
        return f(x)

    want, bisections = _bisect(f, 0.0, 1.0, 1e-12)
    got = _bracketed_root(recording, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
    assert 2 + len(probes) <= bisections + 1
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("w_end", [1.8, 2.0, 2.2])
def test_itp_shooting_integrations_on_the_benchmark_problem(monkeypatch,
                                                            w_end):
    # the shooting problem of the fd-oracle workload: bisection takes 22
    from finsym.numeric import shoot_reduced_ode
    from finsym.reductions import build_reduction

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    w0 = r.slice_range[0]
    slope = 6.0 * w0 ** 5 / 225.0
    probes = _recorded_shooting(monkeypatch, w_end ** 6 / 225.0)
    got = shoot_reduced_ode(r, w0 ** 6 / 225.0, w_end, w_end ** 6 / 225.0,
                            (0.0, 10.0 * slope), steps=80, tol=1e-8)
    assert len(probes) <= 11
    assert abs(got - slope) <= 1e-4 * slope


def test_shooting_returns_a_root_on_a_bracket_end(monkeypatch):
    from finsym.numeric import integrate_reduced_ode, shoot_reduced_ode
    from finsym.reductions import build_reduction

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    w0 = r.slice_range[0]
    phi0 = w0 ** 6 / 225.0
    slope = 6.0 * w0 ** 5 / 225.0
    phi_end = integrate_reduced_ode(r, phi0, slope, 2.0, 40)[1][-1]
    for bracket in ((slope, 2.0 * slope), (0.0, slope)):
        probes = _recorded_shooting(monkeypatch, phi_end)
        got = shoot_reduced_ode(r, phi0, 2.0, phi_end, bracket, steps=40)
        monkeypatch.undo()
        assert got == slope and type(got) is float
        assert len(probes) == 2


def test_reduced_ode_guards():
    from finsym.numeric import integrate_reduced_ode, shoot_reduced_ode
    from finsym.reductions import build_reduction

    algebraic = build_reduction(4, "0", {"n": 1, "q": 1, "eps": -1})
    with pytest.raises(NumericError):
        integrate_reduced_ode(algebraic, 1.0, 0.0, 2.0)
    ode = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    with pytest.raises(NumericError):
        shoot_reduced_ode(ode, 0.5 ** 6 / 225.0, 2.0, 2.0 ** 6 / 225.0,
                          slope_bracket=(0.05, 0.1))


def test_reduced_ode_without_phi_ww_is_degenerate():
    from dataclasses import replace

    from finsym.numeric import integrate_reduced_ode
    from finsym.reductions import build_reduction

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    first_order = replace(r, reduced=parse("phi_w-w*phi"))
    with pytest.raises(NumericError, match="degenerate in phi_ww"):
        integrate_reduced_ode(first_order, 1.0, 0.0, 2.0)
