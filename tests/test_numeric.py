import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from finsym.expressions import ExpressionError, evaluate, parse, substitute
from finsym.model import (
    ConstantH, ExpU, ExpX, FinEquation, FreeD, FreeH, H1, ModelError, PowerU,
    PowerX, Solution,
)
from finsym.numeric import (
    BlowUpError, CoefficientFailure, ConvergenceError, DirichletBC, Grid,
    NoFluxBC, NumericError, StabilityError, BLOWUP_THRESHOLD,
    _CHECK_BLOCK, _CHECK_FLOATS, pde_residual_grid, solve_pde,
)
from finsym.reductions import (
    build_reduction, exact_solution, nonclassical_equation,
)

#: the explicit march's check block on a small grid, and a step count
#: that ends in a partial block
B = _CHECK_BLOCK
STEPS = 2 * B + 3 * B // 4

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
    with pytest.raises(ModelError):
        Grid(2.0, 1.0, 21, 1.0)
    with pytest.raises(ModelError):
        Grid(0.0, 1.0, 4, 1.0)
    with pytest.raises(ModelError):
        Grid(0.0, 1.0, 21, 1.0, dt=-0.1)
    nan, inf = float("nan"), float("inf")
    for args, dt in [((0.0, inf, 21, 1.0), None), ((-inf, 1.0, 21, 1.0), None),
                     ((0.0, 1.0, 21, nan), None), ((0.0, 1.0, 21, inf), 1e-3),
                     ((0.0, 1.0, 21, 1.0), nan), ((0.0, 1.0, 21, 1.0), inf)]:
        with pytest.raises(ModelError):
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


CASE6 = FinEquation(PowerU(-4 / 3), H1(1, 1, 1))
EXACT6 = exact_solution(6, {"p": 1, "q": 1, "eps": 1}).expr
BC6 = DirichletBC(substitute(EXACT6, {"x": 0.5}),
                  substitute(EXACT6, {"x": 2.0}))


def test_a_step_stable_on_the_data_is_accepted():
    # on the case-6 data max|D| = 23.7 at the interfaces, so m = 41 allows
    # dt up to dx^2 / (2 max|D|) = 3.07e-5; a bound taken from a padded u
    # range refused 2e-5 with 1.09e-6
    initial = substitute(EXACT6, {"t": 0.0})
    f = solve_pde(CASE6, initial, BC6, Grid(0.5, 2.0, 41, 0.01, 2e-5))
    exact = evaluate(EXACT6, {"x": f.x})
    assert float(np.max(np.abs(f.values[-1] - exact))) <= 2e-5
    with pytest.raises(StabilityError, match=r"dt=3\.09598e-05 exceeds "
                       r"the stability bound 3\.06661e-05 at t=0;"):
        solve_pde(CASE6, initial, BC6, Grid(0.5, 2.0, 41, 0.01, 3.1e-5))


@pytest.mark.parametrize("eq,solution,a,b", [
    (EQ4, exact_solution(4, {"n": 1, "q": 1, "eps": -1}).expr, 1.0, 2.0),
    (FinEquation(PowerU(1), ExpX(-1)),
     exact_solution(5, {"n": 1, "eps": -1}).expr, 0.5, 2.0),
    (CASE6, EXACT6, 0.5, 2.0),
    (nonclassical_equation(),
     exact_solution("nonclassical", {"C": 1}).expr, 0.5, 1.5),
], ids=["case4", "case5", "case6", "nonclassical"])
def test_closed_forms_converge_at_second_order(eq, solution, a, b):
    # Dirichlet solves to T = 0.1 with the automatic dt on m = 41 and
    # m = 81 nodes: halving dx divides the error by 4
    bc = DirichletBC(substitute(solution, {"x": a}),
                     substitute(solution, {"x": b}))
    errs = []
    for m in (41, 81):
        f = solve_pde(eq, substitute(solution, {"t": 0.0}), bc,
                      Grid(a, b, m, 0.1))
        exact = evaluate(solution, {"t": 0.1, "x": f.x})
        errs.append(float(np.max(np.abs(f.values[-1] - exact))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5, errs


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


def test_growing_diffusivity_is_an_instability_not_a_blow_up():
    # D = u grows with u ~ e^(60 t), so the step that was stable at t = 0
    # breaks the bound long before |u| nears the blow-up threshold
    eq = FinEquation(PowerU(1), ConstantH(60.0))
    with pytest.raises(StabilityError, match=r"at t=0\.00362319;"):
        solve_pde(eq, parse("1+x"), NoFluxBC(), Grid(0.0, 1.0, 9, 1.0))


@pytest.mark.parametrize("method", ["explicit", "implicit"])
@pytest.mark.parametrize("n,initial", [(0.5, "x-1.5"), (-1, "0")],
                         ids=["nan", "inf"])
def test_non_finite_diffusivity_in_a_step_raises_coefficient_failure(
        method, n, initial):
    # with dt given, the first step's own D values are the ones checked
    eq = FinEquation(PowerU(n), PowerX(1, -1))
    with pytest.raises(CoefficientFailure, match="at an interface"):
        solve_pde(eq, parse(initial), NoFluxBC(),
                  Grid(1.0, 2.0, 21, 0.01, 1e-4), method)


def test_blow_up_aborts_with_partial_field():
    # D = 1/u falls as u ~ e^(60 t) grows, so the step stays stable and
    # the run ends in a genuine blow-up
    eq = FinEquation(PowerU(-1), ConstantH(60.0))
    g = Grid(0.0, 1.0, 9, 1.0)
    with pytest.raises(BlowUpError, match=r"blew up at t=0\.54") as err:
        solve_pde(eq, parse("1+x"), NoFluxBC(), g)
    partial = err.value.partial
    assert partial is not None
    assert partial.times[-1] > 0.4
    assert np.all(np.isfinite(partial.values))


@pytest.mark.parametrize("h,initial,t_final", [
    (1e308, "1+x", 0.01),           # h u overflows: u_next is inf
    (0.0, "1e300*(1+x)", 1e-303),   # every flux overflows: u_next is NaN
], ids=["inf", "nan"])
def test_non_finite_step_with_finite_d_is_a_blow_up(h, initial, t_final):
    # D stays finite at the interfaces, so the one blow-up test must catch
    # inf and NaN in u_next; under the suite's warnings-as-errors setting,
    # numpy must not warn of the overflow or the inf - inf first
    eq = FinEquation(PowerU(1), ConstantH(h))
    with pytest.raises(BlowUpError, match="blew up at t=") as err:
        solve_pde(eq, parse(initial), NoFluxBC(), Grid(0.0, 1.0, 21, t_final))
    partial = err.value.partial
    assert partial.times.tolist() == [0.0]
    assert np.isfinite(partial.values).all()


def _reference_explicit(eq, initial, boundary, grid):
    """The conservative explicit Euler scheme as numpy array operations on
    a grid with a given dt, checked step by step: the times and levels
    stored every ``max(1, steps // 10)`` steps and at the last, up to the
    first failing step, and that step's (step, exception class, message),
    or None.  A step checks max|D| on its interfaces before it is taken
    and max|u| after."""
    xs, dx = grid.nodes(), grid.dx
    u = evaluate(initial, {"x": xs})
    h = evaluate(eq.h_expr(), {"x": xs})
    n_steps = int(np.ceil(grid.t_final / grid.dt - 1e-12))
    dt = grid.t_final / n_steps
    bound = 0.5 * dx * dx / dt
    store_every = max(1, n_steps // 10)
    times, levels = [0.0], [u]
    t = 0.0
    with np.errstate(all="ignore"):
        for step in range(1, n_steps + 1):
            mid = 0.5 * (u[:-1] + u[1:])
            d = evaluate(eq.d_expr(), {"u": mid})
            max_d = np.abs(d).max()
            if not np.isfinite(max_d):
                failure = (CoefficientFailure, "D not finite at an interface")
                return np.array(times), np.array(levels), (step, *failure)
            if max_d > bound:
                return np.array(times), np.array(levels), (
                    step, StabilityError,
                    f"explicit step dt={dt:g} exceeds the stability bound "
                    f"{0.5 * dx * dx / max_d:g} at t={t:g}; pass a smaller "
                    "dt or method='implicit'")
            t = step * dt if step < n_steps else grid.t_final
            flux = d * (u[1:] - u[:-1]) / dx
            out = np.empty_like(u)
            out[1:-1] = (flux[1:] - flux[:-1]) / dx + h[1:-1] * u[1:-1]
            if isinstance(boundary, NoFluxBC):
                out[0] = flux[0] / dx + h[0] * u[0]
                out[-1] = -flux[-1] / dx + h[-1] * u[-1]
            else:
                out[0] = out[-1] = 0.0
            u = u + dt * out
            if isinstance(boundary, DirichletBC):
                u[0] = evaluate(boundary.left, {"t": t})
                u[-1] = evaluate(boundary.right, {"t": t})
            if not np.abs(u).max() <= BLOWUP_THRESHOLD:
                return np.array(times), np.array(levels), (
                    step, BlowUpError, f"solution blew up at t={t:g}")
            if step % store_every == 0 or step == n_steps:
                times.append(t)
                levels.append(u)
    return np.array(times), np.array(levels), None


@pytest.mark.parametrize("eq,initial,boundary,grid", [
    (EQ4, parse("x^3/15+0.01*x*(2-x)"), BC4, Grid(1.0, 2.0, 41, 0.02, 1e-4)),
    (FinEquation(PowerU(2), ConstantH(-0.7)), parse("1+0.3*x*(1-x)"),
     NoFluxBC(), Grid(0.0, 1.0, 33, 0.03, 2e-4)),
    (FinEquation(PowerU(-1), FreeH(parse("x"))), parse("2"),
     DirichletBC(parse("2*exp(0.5*t)"), parse("2*exp(1.5*t)")),
     Grid(0.5, 1.5, 41, 0.05, 1e-4)),
    # from u = -0 the no-flux ends pin the signs of the solver's walls:
    # step 1 makes the right end -0.0 with D = u^2, h = 0, and the left
    # end -0.0 with D = u^3, h = 1
    (FinEquation(PowerU(2), ConstantH(0.0)), parse("-0"), NoFluxBC(),
     Grid(0.0, 1.0, 8, 0.01, 1e-3)),
    (FinEquation(PowerU(3), ConstantH(1.0)), parse("-0"), NoFluxBC(),
     Grid(0.0, 1.0, 8, 0.01, 1e-3)),
    # 10 (B/4 + 1) steps: two whole check blocks and a partial one
    (EQ4, parse("x^3/15+0.01*x*(2-x)"), BC4,
     Grid(1.0, 2.0, 41, 10 * (B // 4 + 1) * 1e-4, 1e-4)),
], ids=["dirichlet", "noflux", "moving", "noflux-right-wall",
        "noflux-left-wall", "partial-check-block"])
def test_explicit_steps_are_bit_identical_to_array_operations(
        eq, initial, boundary, grid):
    # every stored level, so a work buffer that aliases a stored level or
    # the live state shows in the levels after it; no row ends in a whole
    # check block
    assert round(grid.t_final / grid.dt) % B != 0
    field = solve_pde(eq, initial, boundary, grid)
    times, levels, failure = _reference_explicit(eq, initial, boundary, grid)
    assert failure is None and len(times) == 11
    assert field.times.tobytes() == times.tobytes()
    assert field.values.tobytes() == levels.tobytes()


def test_a_solve_returns_arrays_of_its_own():
    # a second solve of the same problem reuses no array the first returned
    g = Grid(1.0, 2.0, 41, 0.02, 1e-4)
    first = solve_pde(EQ4, parse("x^3/15+0.01*x*(2-x)"), BC4, g)
    kept = [a.copy() for a in (first.x, first.times, first.values)]
    second = solve_pde(EQ4, parse("x^3/15+0.02*x*(2-x)"), BC4, g)
    assert not np.array_equal(first.values, second.values)
    for a, b in zip((first.x, first.times, first.values), kept):
        assert a.tobytes() == b.tobytes()


def test_a_blow_up_keeps_the_levels_it_stored():
    # D = 1/u stays stable as u ~ e^(60 t) grows past the threshold
    eq = FinEquation(PowerU(-1), ConstantH(60.0))
    g = Grid(0.0, 1.0, 9, 1.0, 5e-3)
    with pytest.raises(BlowUpError) as err:
        solve_pde(eq, parse("1+x"), NoFluxBC(), g)
    partial = err.value.partial
    times, levels, failure = _reference_explicit(eq, parse("1+x"),
                                                 NoFluxBC(), g)
    assert failure[1] is BlowUpError
    assert len(times) > 3 and np.isfinite(partial.values).all()
    assert partial.times.tobytes() == times.tobytes()
    assert partial.values.tobytes() == levels.tobytes()


#: uniform data on a no-flux grid with dx = 2, dt = 0.5 and h = 2: the
#: flux is 0, so u doubles exactly each step, the stability bound on max|D|
#: is 4, and the step that fails is set by the amplitude of the data
DOUBLING_FAILURES = {
    # D = u: max|D| = 6 at the start of the step, 3 before it
    "stability": (PowerU(1), lambda step: 6.0 * 2.0 ** (1 - step)),
    # D = (1-u)^0.5: NaN at u = 1.5, 0.5 at u = 0.75 before it
    "nan-d": (FreeD(parse("(1-u)^0.5")), lambda step: 1.5 * 2.0 ** (1 - step)),
    # D = 1/(u-1): inf at u = 1, -2 at u = 0.5 before it
    "inf-d": (FreeD(parse("(u-1)^(-1)")), lambda step: 2.0 ** (1 - step)),
    # D = 2+arctan(u) < 4: u reaches 1.5e12 at the step
    "blow-up": (FreeD(parse("2+arctan(u)")),
                lambda step: 1.5e12 * 2.0 ** -step),
}


@pytest.mark.parametrize("step", [1, B + B // 2, 2 * B, 2 * B + B // 2],
                         ids=["first-step", "mid-block", "block-end",
                              "partial-block"])
@pytest.mark.parametrize("kind", DOUBLING_FAILURES)
def test_a_failure_in_a_check_block_raises_at_its_step(kind, step):
    # the steps marched past the failure change nothing: the class and the
    # message are the step-by-step reference's, and a blow-up keeps only
    # the levels stored before its step
    d, amplitude = DOUBLING_FAILURES[kind]
    eq, initial = FinEquation(d, ConstantH(2.0)), parse(repr(amplitude(step)))
    grid = Grid(0.0, 16.0, 9, 0.5 * STEPS, 0.5)
    assert 9 * B <= _CHECK_FLOATS  # whole blocks of B steps on 9 nodes
    times, levels, failure = _reference_explicit(eq, initial, NoFluxBC(), grid)
    assert failure[0] == step
    with pytest.raises(NumericError) as err:
        solve_pde(eq, initial, NoFluxBC(), grid)
    assert type(err.value) is failure[1]
    assert str(err.value) == failure[2]
    if failure[1] is BlowUpError:
        assert len(times) == 1 + (step - 1) // (STEPS // 10)
        assert err.value.partial.times.tobytes() == times.tobytes()
        assert err.value.partial.values.tobytes() == levels.tobytes()


def test_check_rows_on_a_large_grid_stay_within_their_budget(monkeypatch):
    # on 100,001 nodes a block of B rows for |D| and |u| would take 2 B
    # m-vectors; past _CHECK_FLOATS floats a block holds one step
    import tracemalloc

    import finsym.numeric as numeric

    m = 100_001
    assert m > _CHECK_FLOATS
    solve_pde(EQ4, EXACT4, BC4, Grid(1.0, 2.0, 9, 2e-11, 1e-11))  # compile
    peaks = {}
    for block in (1, B):
        monkeypatch.setattr(numeric, "_CHECK_BLOCK", block)
        tracemalloc.start()
        try:
            field = solve_pde(EQ4, EXACT4, BC4,
                              Grid(1.0, 2.0, m, 2e-11, 1e-11))
            peaks[block] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.values.shape == (3, m)  # 2 steps, both stored
    assert peaks[B] <= peaks[1] + 2 * 8 * _CHECK_FLOATS, peaks


def test_a_d_gets_one_interface_tape(monkeypatch):
    # the tape is kept per repr(D): grids and boundaries of one D share one
    # generated core, and trees equal but for the sign of a zero do not
    from finsym import expressions
    from finsym.numeric import _interface_tape

    generated = []
    real = expressions._straight_line

    def counting(*args):
        generated.append(args)
        return real(*args)

    monkeypatch.setattr(expressions, "_straight_line", counting)
    _interface_tape.cache_clear()
    for m in (21, 41):
        for bc in (BC4, NoFluxBC()):
            solve_pde(EQ4, EXACT4, bc, Grid(1.0, 2.0, m, 1e-3))
    assert len(generated) == 1

    eqs = [FinEquation(FreeD(parse(f"u*(2+sign(1/({zero})))")),
                       ConstantH(0.0)) for zero in ("0", "-0")]
    assert eqs[0] == eqs[1]
    fields = [solve_pde(eq, EXACT4, NoFluxBC(), Grid(1.0, 2.0, 21, 1e-3))
              for eq in eqs]
    assert len(generated) == 3
    assert not np.array_equal(fields[0].values, fields[1].values)


def _boundary_tape_times(monkeypatch, boundary):
    """The t bound at each call of the tape compiled from ``boundary``."""
    import finsym.numeric as numeric

    times = []
    real = numeric.compile_expressions

    def recording(*exprs):
        run = real(*exprs)
        if exprs != (boundary.left, boundary.right):
            return run

        def recorded(bindings):
            times.append(bindings["t"])
            return run(bindings)
        return recorded

    monkeypatch.setattr(numeric, "compile_expressions", recording)
    return times


MOVING = (FinEquation(PowerU(-1), FreeH(parse("x"))), parse("2"),
          DirichletBC(parse("2*exp(0.5*t)"), parse("2*exp(1.5*t)")),
          Grid(0.5, 1.5, 41, 0.05, 3.1e-4))  # 162 steps: 162*dt < 0.05


@pytest.mark.parametrize("method", ["explicit", "implicit"])
def test_a_dirichlet_solve_calls_its_boundary_tape_once(monkeypatch, method):
    eq, initial, boundary, grid = MOVING
    times = _boundary_tape_times(monkeypatch, boundary)
    field = solve_pde(eq, initial, boundary, grid, method)
    dt = grid.t_final / 162
    assert len(times) == 1
    assert times[0].tolist() == [
        step * dt if step < 162 else grid.t_final for step in range(1, 163)]
    assert field.times[-1] == grid.t_final


@pytest.mark.parametrize("block", [6, 7, 161])
def test_boundary_blocks_give_the_bits_of_one_block(monkeypatch, block):
    import finsym.numeric as numeric

    eq, initial, boundary, grid = MOVING
    whole = solve_pde(eq, initial, boundary, grid)
    monkeypatch.setattr(numeric, "_BOUNDARY_BLOCK", block)
    times = _boundary_tape_times(monkeypatch, boundary)
    blocked = solve_pde(eq, initial, boundary, grid)
    assert len(times) == -(-162 // block)
    assert np.concatenate(times)[-1] == grid.t_final
    assert np.array_equal(blocked.times, whole.times)
    assert np.array_equal(blocked.values, whole.values)


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
    from finsym.expressions import differentiate, substitute

    params = {"p": 1, "q": 1, "eps": 1}
    r = build_reduction(6, "1", params)
    u_exact = exact_solution(6, params).expr
    phi_exact = substitute(parse("u^(-1/3)"),
                           {"u": substitute(u_exact, {"x": parse("w")})})
    dphi_exact = differentiate(phi_exact, "w")

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


def test_rk4_core_is_generated_once_per_residual(monkeypatch):
    # the RK4 tape is kept per residual and its core per order, so two
    # integrations and a shoot on one residual generate code once
    from finsym import expressions
    from finsym.numeric import (
        _rk4_step, integrate_reduced_ode, shoot_reduced_ode,
    )

    generated = []
    real = expressions._straight_line

    def counting(*args):
        generated.append(args)
        return real(*args)

    monkeypatch.setattr(expressions, "_straight_line", counting)
    _rk4_step.cache_clear()
    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    w0 = r.slice_range[0]
    phi0 = w0 ** 6 / 225.0
    first = integrate_reduced_ode(r, phi0, 0.01, 2.0, steps=50)
    again = integrate_reduced_ode(r, phi0, 0.01, 2.0, steps=50)
    shoot_reduced_ode(r, phi0, 2.0, 2.0 ** 6 / 225.0,
                      slope_bracket=(0.0, 0.01), steps=50)
    assert len(generated) == 1
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()


def _reference_rk4(reduction, phi0, dphi0, w_end, steps):
    """Classical RK4 in Python floats, each stage solving the residual for
    phi_ww as (-b)/a; ``evaluate`` gives the bits of the compiled tape."""
    from finsym.expressions import substitute

    at0 = substitute(reduction.reduced, {"phi_ww": 0.0})
    at1 = substitute(reduction.reduced, {"phi_ww": 1.0})

    def rhs(w, phi, phi_w):
        point = {"w": w, "phi": phi, "phi_w": phi_w}
        b = float(evaluate(at0, point))
        a = float(evaluate(at1, point)) - b
        return -b / a

    w0 = reduction.slice_range[0]
    hstep = (w_end - w0) / steps
    w, y, v = w0, float(phi0), float(dphi0)
    ws, phis, slopes = [w], [y], [v]
    for k in range(1, steps + 1):
        k1y, k1v = v, rhs(w, y, v)
        k2y = v + 0.5 * hstep * k1v
        k2v = rhs(w + 0.5 * hstep, y + 0.5 * hstep * k1y, k2y)
        k3y = v + 0.5 * hstep * k2v
        k3v = rhs(w + 0.5 * hstep, y + 0.5 * hstep * k2y, k3y)
        k4y = v + hstep * k3v
        k4v = rhs(w + hstep, y + hstep * k3y, k4y)
        y = y + hstep / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        v = v + hstep / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        w = w0 + k * hstep
        ws.append(w)
        phis.append(y)
        slopes.append(v)
    return np.array(ws), np.array(phis), np.array(slopes)


@pytest.mark.parametrize("case,params,phi0,dphi0,w_end,steps", [
    (4, {"n": 1, "q": 1, "eps": -1}, 0.5 ** 6 / 225, 6 * 0.5 ** 5 / 225, 2.0,
     80),
    (6, {"p": 1, "q": 1, "eps": 1}, 0.9, -0.3, 2.5, 400),
], ids=["4.1", "6.1"])
def test_fused_rk4_step_is_bit_identical_to_a_float_loop(case, params, phi0,
                                                         dphi0, w_end, steps):
    from finsym.numeric import integrate_reduced_ode
    from finsym.reductions import build_reduction

    r = build_reduction(case, "1", params)
    got = integrate_reduced_ode(r, phi0, dphi0, w_end, steps)
    want = _reference_rk4(r, phi0, dphi0, w_end, steps)
    assert np.isfinite(want[1]).all()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_degenerate_phi_ww_at_an_interior_stage_names_that_stage():
    # the phi_ww coefficient w - c vanishes at the midpoint stages of the
    # third step, not at any step start
    from dataclasses import replace

    from finsym.numeric import integrate_reduced_ode
    from finsym.reductions import build_reduction

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    w0, hstep = r.slice_range[0], 0.1
    c = (w0 + 2 * hstep) + 0.5 * hstep
    singular = replace(r, reduced=parse(f"(w-{c!r})*phi_ww+phi"))
    with pytest.raises(NumericError,
                       match=r"degenerate in phi_ww at w=0\.75$"):
        integrate_reduced_ode(singular, 1.0, 0.0, w0 + 10 * hstep, 10)


@pytest.mark.parametrize("text", ["phi_ww-h*phi", "phi_ww-y", "phi_ww+v*w"])
def test_a_free_symbol_in_the_residual_stays_unbound(text):
    # y, v and h name the RK4 step's own inputs; a residual's may not bind
    from dataclasses import replace

    from finsym.expressions import UnboundSymbolError
    from finsym.numeric import integrate_reduced_ode
    from finsym.reductions import build_reduction

    r = replace(build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1}),
                reduced=parse(text))
    with pytest.raises(UnboundSymbolError, match="unbound symbol"):
        integrate_reduced_ode(r, 1.0, 0.0, 2.0, 10)


def test_residuals_equal_but_for_the_sign_of_a_zero_get_their_own_step():
    # Num(0.0) == Num(-0.0), so the two trees compare and hash equal
    from dataclasses import replace

    from finsym.numeric import integrate_reduced_ode
    from finsym.reductions import build_reduction

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    trees = [parse(f"phi_ww-arctan(1/({zero}))") for zero in ("0", "-0")]
    assert trees[0] == trees[1]
    slopes = [integrate_reduced_ode(replace(r, reduced=t), 1.0, 0.0, 2.0,
                                    10)[2][-1] for t in trees]
    assert slopes[0] == -slopes[1] == pytest.approx(1.5 * np.pi / 2)


def test_a_shoot_compiles_its_rk4_step_once(monkeypatch):
    import finsym.numeric as numeric
    from finsym.reductions import build_reduction

    compiles = []
    real = numeric.compile_expressions

    def counting(*exprs):
        compiles.append(exprs)
        return real(*exprs)

    monkeypatch.setattr(numeric, "compile_expressions", counting)
    numeric._rk4_step.cache_clear()
    for _ in range(2):  # an equal residual built anew reuses the tape
        r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
        w0 = r.slice_range[0]
        numeric.shoot_reduced_ode(r, w0 ** 6 / 225.0, 2.0, 2.0 ** 6 / 225.0,
                                  (0.0, 0.01), steps=80)
        assert len(compiles) == 1


def test_a_shoot_looks_its_rk4_step_up_once(monkeypatch):
    # not once per integration: the lookup pays repr(residual) and a cache
    # probe, which the shoot's ITP steps would repeat
    import finsym.numeric as numeric

    keys = []
    real = numeric._rk4_step

    def counting(residual, key):
        keys.append(key)
        return real(residual, key)

    monkeypatch.setattr(numeric, "_rk4_step", counting)
    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    w0 = r.slice_range[0]
    numeric.shoot_reduced_ode(r, w0 ** 6 / 225.0, 2.0, 2.0 ** 6 / 225.0,
                              (0.0, 0.01), steps=80)
    assert keys == [repr(r.reduced)]


def _recorded_shooting(monkeypatch, phi_end):
    """Record (slope, endpoint miss) of every integration shooting makes."""
    import finsym.numeric as numeric

    real = numeric._march
    probes = []

    def recording(step, w0, phi0, slope, w_end, steps):
        out = real(step, w0, phi0, slope, w_end, steps)
        probes.append((slope, out[1][-1] - phi_end))
        return out

    monkeypatch.setattr(numeric, "_march", recording)
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


# ---------------------------------------------------------------------------
# the loops call the positional core of their tape; the bits are run's

#: special values mixed into the core's inputs
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0)


def _interface_tape(eq):
    """The interface tape solve_pde keeps for ``eq``'s D: (D, D*(u_r-u_l))
    in (u_l, u_r), taken from the cache the solve filled."""
    import finsym.numeric as numeric

    solve_pde(eq, parse("1+x"), NoFluxBC(), Grid(0.0, 1.0, 41, 1e-4))
    d = eq.d_expr()
    hits = numeric._interface_tape.cache_info().hits
    tape = numeric._interface_tape(d, repr(d))
    assert numeric._interface_tape.cache_info().hits == hits + 1
    return tape


@pytest.mark.parametrize("d", [
    PowerU(2), PowerU(-4 / 3), PowerU(0.5), ExpU(), FreeD(parse("1/u")),
], ids=["u^2", "u^-4/3", "u^0.5", "exp", "pole"])
def test_interface_core_gives_the_bits_of_run(d):
    tape = _interface_tape(FinEquation(d, ConstantH(1.0)))
    core = tape.bind(("u_l", "u_r"))
    rng = np.random.default_rng(19)
    for trial in range(20):
        v = rng.uniform(-2.0, 3.0, 41)
        v[rng.choice(41, trial, replace=False)] = rng.choice(SPECIAL, trial)
        with np.errstate(all="ignore"):
            got = core(v[:-1], v[1:])
        want = tape({"u_l": v[:-1], "u_r": v[1:]})
        for g, w in zip(got, want, strict=True):
            assert g.shape == (40,) and g.tobytes() == w.tobytes(), trial


@pytest.mark.parametrize("case,params", [
    (4, {"n": 1, "q": 1, "eps": -1}), (6, {"p": 1, "q": 1, "eps": 1}),
], ids=["4.1", "6.1"])
def test_rk4_core_gives_the_bits_of_run(case, params):
    from finsym.numeric import _rk4_step

    residual = build_reduction(case, "1", params).reduced
    tape = _rk4_step(residual, repr(residual))
    core = tape.bind(("w", "y", "v", "h"))
    values = (*SPECIAL, 0.7, 1.5, -2.0)
    for point in itertools.product(values, repeat=4):
        with np.errstate(all="ignore"):
            got = core(*map(np.float64, point))
        want = tape(dict(zip("wyvh", point)))
        assert len(got) == 6
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), point


#: the reductions of the pinned catalog that carry an ODE, one per residual
REDUCED = sorted({rec["reduced"]: rec for rec in json.loads(
    (Path(__file__).with_name("reduction_catalog.json")).read_text())
    if rec["reduced"] is not None}.values(), key=lambda rec: rec["reduced"])


@pytest.mark.parametrize("rec", REDUCED, ids=lambda rec: rec["reduced"])
def test_float_core_gives_the_bits_of_the_float64_core(rec):
    # the march's float core against the np.float64 core, at seeded stage
    # points where phi stays positive, so no step leaves the reals
    from finsym.numeric import _RK4_ORDER, _rk4_tape

    r = build_reduction(rec["case"], rec["subalgebra"], rec["params"],
                        negative_time=rec["negative_time"])
    tape = _rk4_tape(r)
    fast, exact = tape.bind(_RK4_ORDER, floats=True), tape.bind(_RK4_ORDER)
    rng = np.random.default_rng(23)
    lo, hi = r.slice_range
    for _ in range(40):
        point = (rng.uniform(lo, hi), rng.uniform(0.2, 2.0),
                 rng.uniform(-1.0, 1.0), rng.uniform(-0.1, 0.1))
        with np.errstate(all="ignore"):
            got = fast(*point)
            want = exact(*map(np.float64, point))
        assert all(type(g) is float for g in got)
        assert np.array(got).tobytes() == np.array(want).tobytes(), point


@pytest.mark.parametrize("case,params", [
    (4, {"n": 1, "q": 1, "eps": -1}), (6, {"p": 1, "q": 1, "eps": 1}),
    (4, {"n": 2, "q": 3, "eps": 1}), (5, {"n": -1, "eps": 1}),
], ids=["4.1", "6.1", "4.1-cube-root", "5.1-exp"])
def test_float_core_raises_or_gives_the_bits_of_the_float64_core(case,
                                                                 params):
    # at special and negative values the float core either raises one of
    # the errors the march falls back on, or returns the np.float64 bits;
    # a NaN may differ in its sign (numpy's scalar nan + -nan is -nan,
    # Python's is nan), which no march sees: a NaN output raises
    from finsym.numeric import _RK4_ORDER, _rk4_tape

    tape = _rk4_tape(build_reduction(case, "1", params))
    fast, exact = tape.bind(_RK4_ORDER, floats=True), tape.bind(_RK4_ORDER)
    values = (*SPECIAL, 0.7, 1.5, -2.0)
    raised = 0
    for point in itertools.product(values, repeat=4):
        with np.errstate(all="ignore"):
            try:
                got = fast(*point)
            except (ArithmeticError, ValueError):
                raised += 1
                continue
            want = exact(*map(np.float64, point))
        assert all(type(g) is float for g in got), point
        got, want = np.array(got), np.array(want)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), point
        assert got[~nan].tobytes() == want[~nan].tobytes(), point
    assert raised < len(values) ** 4


def _generated_cores(monkeypatch):
    """The arguments of every core generated from now on, with the RK4
    step cache emptied."""
    from finsym import expressions
    from finsym.numeric import _rk4_step

    generated = []
    real = expressions._straight_line

    def counting(*args):
        generated.append(args)
        return real(*args)

    monkeypatch.setattr(expressions, "_straight_line", counting)
    _rk4_step.cache_clear()
    return generated


@pytest.mark.parametrize("text,phi0,dphi0,w_end,message", [
    # a = w - 0.75 is 0 at the midpoint stages of the third step: the float
    # core divides by zero there
    ("(w-0.75)*phi_ww+phi", 1.0, 0.0, 1.5,
     r"degenerate in phi_ww at w=0\.75$"),
    # phi falls below 0, and phi^0.5 raises ValueError in floats (math.pow
    # has no real value to give), NaN in numpy
    ("phi_ww-phi^0.5", 0.5, -1.0, 2.0, r"degenerate in phi_ww at w=1\.1$"),
    # 1.5^400 overflows: OverflowError in floats, inf in numpy
    ("phi_ww-phi^400", 1.5, 0.0, 2.0, r"degenerate in phi_ww at w=0\.5$"),
    # the same phi^0.5, NaN in numpy, inside a ufunc, and inside abs
    ("phi_ww-arctan(phi^0.5)", 0.5, -1.0, 2.0,
     r"degenerate in phi_ww at w=1\.1$"),
    ("phi_ww-abs(phi^0.5)", 0.5, -1.0, 2.0,
     r"degenerate in phi_ww at w=1\.1$"),
], ids=["divide-by-zero", "complex", "overflow", "complex-ufunc",
        "complex-abs"])
def test_a_step_the_float_core_refuses_runs_on_float64(monkeypatch, text,
                                                       phi0, dphi0, w_end,
                                                       message):
    # the error and its w are the np.float64 march's, and the np.float64
    # core is generated at the first fallback: two cores in all
    from finsym.numeric import integrate_reduced_ode

    generated = _generated_cores(monkeypatch)
    r = replace(build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1}),
                reduced=parse(text))
    with pytest.raises(NumericError, match=message):
        integrate_reduced_ode(r, phi0, dphi0, w_end, 10)
    assert len(generated) == 2


def test_a_march_keeps_its_bits_through_a_fallback(monkeypatch):
    # 1/(w-0.75) is inf in numpy at the third step's midpoint stages and
    # arctan(inf) = pi/2, so the march goes on after the float64 step
    from finsym.numeric import integrate_reduced_ode

    generated = _generated_cores(monkeypatch)
    r = replace(build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1}),
                reduced=parse("phi_ww-arctan(1/(w-0.75))"))
    got = integrate_reduced_ode(r, 1.0, 0.0, 1.5, 10)
    want = _reference_rk4(r, 1.0, 0.0, 1.5, 10)
    assert len(generated) == 2
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _stability_error():
    solve_pde(EQ4, EXACT4, BC4, Grid(1.0, 2.0, 81, 0.1, dt=0.1))


def _blow_up():
    solve_pde(FinEquation(PowerU(1), ConstantH(1e308)), parse("1+x"),
              NoFluxBC(), Grid(0.0, 1.0, 21, 0.01))


def _coefficient_failure():
    solve_pde(FinEquation(PowerU(0.5), PowerX(1, -1)), parse("x-1.5"),
              NoFluxBC(), Grid(1.0, 2.0, 21, 0.01, 1e-4))


def _degenerate():
    from finsym.numeric import integrate_reduced_ode

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    integrate_reduced_ode(replace(r, reduced=parse("phi_w-w*phi")), 1.0, 0.0,
                          2.0)


def _ode_blow_up():
    from finsym.numeric import integrate_reduced_ode

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    integrate_reduced_ode(replace(r, reduced=parse("phi_ww-1")), 0.0, 0.0,
                          1e200, 1)


#: an outer error state unlike both numpy's default and the loops' own
PRINTING = {"divide": "print", "over": "print", "under": "ignore",
            "invalid": "print"}


@pytest.mark.parametrize("outer", [None, PRINTING], ids=["default", "print"])
@pytest.mark.parametrize("fail,error,message", [
    (_stability_error, StabilityError, "exceeds the stability bound"),
    (_blow_up, BlowUpError, "blew up at t="),
    (_coefficient_failure, CoefficientFailure, "not finite at an interface"),
    (_degenerate, NumericError, "degenerate in phi_ww"),
    (_ode_blow_up, NumericError, "integration blew up"),
], ids=["stability", "blow-up", "coefficient", "degenerate", "ode-blow-up"])
def test_numpy_error_state_is_restored_after_a_raise(outer, fail, error,
                                                     message):
    with np.errstate(**(outer or {})):
        before = np.geterr()
        with pytest.raises(error, match=message):
            fail()
        assert np.geterr() == before


def test_initial_data_and_h_must_be_finite_at_every_node():
    # ln(x-1.5) is NaN left of x = 1.5 and -inf at it
    with pytest.raises(NumericError, match="initial data not finite"):
        solve_pde(EQ4, parse("ln(x-1.5)"), BC4, Grid(1.0, 2.0, 21, 0.1))
    with pytest.raises(CoefficientFailure, match="h not evaluable at a node"):
        solve_pde(FinEquation(PowerU(1), FreeH(parse("ln(x-1.5)"))), EXACT4,
                  BC4, Grid(1.0, 2.0, 21, 0.1))


def test_reduced_ode_needs_steps_and_a_span():
    from finsym.numeric import integrate_reduced_ode, shoot_reduced_ode

    r = build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1})
    w0 = r.slice_range[0]
    for w_end, steps in ((w0, 10), (2.0, 0), (2.0, -1)):
        with pytest.raises(NumericError, match=r"need w_end != slice start "
                           r"and steps >= 1"):
            integrate_reduced_ode(r, 1.0, 0.0, w_end, steps)
        with pytest.raises(NumericError, match=r"need w_end != slice start"):
            shoot_reduced_ode(r, 1.0, w_end, 1.0, (0.0, 1.0), steps)


def test_reduced_ode_blow_up_names_the_step_end():
    # phi'' = 1 over one step of h = 1e200: every stage value is finite,
    # so no stage is degenerate, but phi = h^2 / 2 overflows
    with pytest.raises(NumericError, match=r"^reduced-ODE integration "
                       r"blew up at w=1e\+200$"):
        _ode_blow_up()


@pytest.mark.parametrize("text", ["phi_ww-w/(w-w)", "phi_ww-(-w)^(w/3)*phi"])
def test_w_alone_follows_ieee_arithmetic(text):
    # in Python floats w/(w-w) raises ZeroDivisionError and (-w)^(w/3)
    # ValueError; the march runs such a step again on np.float64 scalars, as
    # run binds them, so numpy's inf and NaN decide the verdict
    from finsym.numeric import integrate_reduced_ode

    r = replace(build_reduction(4, "1", {"n": 1, "q": 1, "eps": -1}),
                reduced=parse(text))
    with pytest.raises(NumericError, match=r"degenerate in phi_ww at w=0\.5$"):
        integrate_reduced_ode(r, 1.0, 0.0, 2.0, 10)


def test_pde_residual_grid_refuses_a_bad_region_or_sample_count():
    s = Solution(parse("x^3/15"))
    with pytest.raises(ExpressionError,
                       match=r"sampling range of x .* got \(2, 1\)"):
        pde_residual_grid(EQ4, s, ((0, 1), (2, 1)))
    with pytest.raises(ExpressionError, match="need at least one sample"):
        pde_residual_grid(EQ4, s, ((0, 1), (1, 2)), samples=0)


@pytest.mark.parametrize("boundary", [None, "noflux"])
def test_solve_pde_refuses_a_boundary_it_does_not_know(boundary):
    eq = FinEquation(PowerU(2), ConstantH(1))
    with pytest.raises(ModelError, match="boundary must be a DirichletBC "
                                         "or a NoFluxBC"):
        solve_pde(eq, parse("1+x"), boundary, Grid(0, 1, 9, 0.01))


def test_numeric_error_is_the_model_class():
    import finsym.model
    import finsym.numeric
    assert finsym.numeric.NumericError is finsym.model.NumericError
    assert issubclass(StabilityError, finsym.model.NumericError)
