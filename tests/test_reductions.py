import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from finsym.expressions import (
    add, compile_expressions, differentiate, equivalent, evaluate, mul, neg,
    num, parse, pow_, sub, substitute, to_string,
)
from finsym.model import ExpX, FinEquation, H1, PowerU, PowerX
from finsym.numeric import pde_residual_grid
from finsym.reductions import (
    _CUBIC, _cubic_draw, _oracle_residuals, RealityError, ReductionError,
    build_reduction, check_order_reduction_61, exact_solution,
    nonclassical_equation, order_reduce_61, reduction_chain_solution,
    solve_algebraic, verify_reduction,
)

EQ4 = lambda n, q, eps: FinEquation(PowerU(n), PowerX(q, eps))
EQ5 = lambda n, eps: FinEquation(PowerU(n), ExpX(eps))
EQ6 = lambda p, q, eps: FinEquation(PowerU(-4 / 3), H1(p, q, eps))


#: the printed catalog of cases 4 and 5 over n in {2, -1, 1/2}, q in {3, -1},
#: eps = +-1 and both time branches, one record per build_reduction call
CATALOG = json.loads(
    (Path(__file__).with_name("reduction_catalog.json")).read_text())


def _catalog_id(rec):
    par = " ".join(f"{k}={v}" for k, v in rec["params"].items())
    return f"{rec['label']} {par}" + (" t<0" if rec["negative_time"] else "")


@pytest.mark.parametrize("rec", CATALOG, ids=_catalog_id)
def test_power_diffusion_catalog_is_pinned(rec):
    r = build_reduction(rec["case"], rec["subalgebra"], rec["params"],
                        negative_time=rec["negative_time"])
    printed = {field: None if getattr(r, field) is None
               else to_string(getattr(r, field))
               for field in ("ansatz", "omega", "reduced", "algebraic")}
    assert r.label == rec["label"]
    assert printed == {field: rec[field] for field in printed}
    assert (r.slice_var, list(r.slice_range), list(r.anchor)) == (
        rec["slice_var"], rec["slice_range"], rec["anchor"])


def test_41_instantiation():
    r = build_reduction(4, "1", {"n": 2, "q": 1, "eps": 1})
    assert equivalent(r.ansatz, parse("phi^(1/3)"), seed=1)
    assert r.omega == parse("x")
    assert equivalent(r.reduced, parse("phi_ww + 3*w*phi^(1/3)"), seed=2)


def test_52_instantiation():
    r = build_reduction(5, "2", {"n": 1, "eps": 1})
    assert equivalent(r.ansatz, parse("abs(t)^-1*phi"), seed=3)
    assert equivalent(r.omega, parse("x+ln(abs(t))"), seed=4)
    want = parse("phi_w^2 + phi*phi_ww + exp(w)*phi + phi - phi_w")
    assert equivalent(r.reduced, want, seed=5)


def test_60_algebraic_equation():
    r = build_reduction(6, "0", {"p": 1, "q": 1, "eps": 1})
    # root C satisfies C^(4/3) = 3*17/16
    root = solve_algebraic(6, {"p": 1, "q": 1, "eps": 1})
    assert root ** (4.0 / 3.0) == pytest.approx(3 * 17 / 16, rel=1e-12)
    assert float(evaluate(r.algebraic, {"C": root})) == pytest.approx(0, abs=1e-12)


def test_generators_annihilate_the_ansatz():
    # invariant-surface condition Q = eta - tau u_t - xi u_x vanishes on
    # the ansatz for every test profile
    rng = np.random.default_rng(17)
    cases = [
        (4, "1", {"n": 2, "q": 1, "eps": 1}),
        (4, "2", {"n": 1, "q": 1, "eps": 1}),
        (5, "2", {"n": 1, "eps": 1}),
        (6, "1", {"p": 1, "q": 1, "eps": 1}),
        (6, "2", {"p": 1, "q": 1, "eps": 1}),
    ]
    for case, subalg, params in cases:
        r = build_reduction(case, subalg, params)
        gen = r.generators[int(subalg) - 1] if subalg != "0" else None
        coeffs = rng.uniform(0.5, 1.5, size=3)
        phi = parse(f"{coeffs[0]}+{coeffs[1]}*w+{coeffs[2]}*w^2")
        u_expr = substitute(r.ansatz, {"phi": substitute(phi, {"w": r.omega})})
        q_expr = sub(sub(substitute(gen.eta, {"u": u_expr}),
                         mul(gen.tau, differentiate(u_expr, "t"))),
                     mul(gen.xi, differentiate(u_expr, "x")))
        ts = rng.uniform(0.5, 1.5, size=30)
        xs = rng.uniform(*r.slice_range, size=30)
        vals = np.broadcast_to(
            np.asarray(evaluate(q_expr, {"t": ts, "x": xs})), (30,))
        scale = 1.0 + np.abs(np.broadcast_to(
            np.asarray(evaluate(u_expr, {"t": ts, "x": xs})), (30,)))
        assert float(np.max(np.abs(vals) / scale)) <= 1e-9, (case, subalg)


def test_60_ansatz_invariant_under_both_generators():
    params = {"p": 1, "q": 1, "eps": 1}
    r = build_reduction(6, "0", params)
    root = solve_algebraic(6, params)
    u_expr = substitute(r.ansatz, {"C": root})
    rng = np.random.default_rng(23)
    ts = rng.uniform(0.5, 1.5, size=30)
    xs = rng.uniform(0.5, 3.0, size=30)
    for gen in r.generators:
        q_expr = sub(sub(substitute(gen.eta, {"u": u_expr}),
                         mul(gen.tau, differentiate(u_expr, "t"))),
                     mul(gen.xi, differentiate(u_expr, "x")))
        vals = np.broadcast_to(
            np.asarray(evaluate(q_expr, {"t": ts, "x": xs})), (30,))
        assert float(np.max(np.abs(vals))) <= 1e-9


@pytest.mark.parametrize("case,sub,params,eq", [
    (4, "1", {"n": 2, "q": 1, "eps": 1}, EQ4(2, 1, 1)),
    (4, "1", {"n": -1, "q": 1, "eps": 1}, EQ4(-1, 1, 1)),
    (4, "2", {"n": 1, "q": 1, "eps": 1}, EQ4(1, 1, 1)),
    (5, "1", {"n": 1, "eps": 1}, EQ5(1, 1)),
    (5, "1", {"n": -1, "eps": 1}, EQ5(-1, 1)),
    (5, "2", {"n": 1, "eps": 1}, EQ5(1, 1)),
    (6, "1", {"p": 1, "q": 1, "eps": 1}, EQ6(1, 1, 1)),
    (6, "1", {"p": -1, "q": 2, "eps": -1}, EQ6(-1, 2, -1)),
    (6, "2", {"p": 1, "q": 1, "eps": 1}, EQ6(1, 1, 1)),
], ids=lambda v: str(v)[:24])
def test_verify_reduction_passes(case, sub, params, eq):
    r = build_reduction(case, sub, params)
    report = verify_reduction(eq, r)
    assert report.passed, (report.label, report.deviation)
    assert report.deviation <= 1e-8


def _numeric_cubic(draw):
    """The test function with the draw as literal coefficients: one tree
    per draw, built term by term by the smart constructors."""
    w = parse("w")
    e = num(draw["c0"])
    for k in (1, 2, 3):
        e = add(e, mul(num(draw[f"c{k}"]), pow_(w, num(k))))
    return e


@pytest.mark.parametrize("case,sub,params,eq", [
    (4, "1", {"n": 2, "q": 1, "eps": 1}, EQ4(2, 1, 1)),
    (4, "2", {"n": 1, "q": 1, "eps": 1}, EQ4(1, 1, 1)),
    (5, "2", {"n": 1, "eps": 1}, EQ5(1, 1)),
    (6, "1", {"p": 1, "q": 1, "eps": 1}, EQ6(1, 1, 1)),
    (6, "2", {"p": 1, "q": 1, "eps": 1}, EQ6(1, 1, 1)),
], ids=["4.1", "4.2", "5.2", "6.1", "6.2"])
def test_a_draw_bound_to_the_symbolic_cubic_gives_the_literal_trees_bits(
        case, sub, params, eq):
    r = build_reduction(case, sub, params)
    rng = np.random.default_rng(5)
    along = {r.slice_var: rng.uniform(*r.slice_range, size=20),
             r.anchor[0]: np.full(20, r.anchor[1])}
    ws = evaluate(r.omega, along)
    symbolic = compile_expressions(*_oracle_residuals(eq, r, _CUBIC))
    for _ in range(3):
        draw = _cubic_draw(rng, float(ws.min()), float(ws.max()))
        phi = _numeric_cubic(draw)
        assert substitute(_CUBIC, draw) == phi
        pde_res, red_res = _oracle_residuals(eq, r, phi)
        want = (evaluate(pde_res, along), evaluate(red_res, {"w": ws}))
        got = symbolic({**along, "w": ws, **draw})
        assert np.isfinite(want[0]).all() and np.isfinite(want[1]).all()
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_negative_time_branch():
    r = build_reduction(4, "2", {"n": 1, "q": 1, "eps": 1},
                        negative_time=True)
    assert r.anchor == ("t", -1.3)
    report = verify_reduction(EQ4(1, 1, 1), r)
    assert report.passed


def test_corrupted_61_fails():
    params = {"p": 1, "q": 1, "eps": 1}
    r = build_reduction(6, "1", params)
    flipped = dataclasses.replace(
        r, reduced=parse("3*phi_ww + " + to_string(r.reduced.right)))
    report = verify_reduction(EQ6(1, 1, 1), flipped)
    assert not report.passed


def test_62_failure_is_flagged_not_silenced():
    params = {"p": 1, "q": 1, "eps": 1}
    r = build_reduction(6, "2", params)
    broken = dataclasses.replace(r, reduced=parse("phi_ww"))
    report = verify_reduction(EQ6(1, 1, 1), broken)
    assert not report.passed
    assert report.note and "6.2" in report.note


def test_exact_solution_case4_frozen():
    s = exact_solution(4, {"n": 1, "q": 1, "eps": -1})
    assert equivalent(s.expr, parse("x^3/15"), seed=6, tol=1e-12)
    assert pde_residual_grid(EQ4(1, 1, -1), s, ((0, 1), (1, 2))) <= 1e-12


def test_exact_solution_case5_frozen():
    s = exact_solution(5, {"n": 1, "eps": -1})
    assert equivalent(s.expr, parse("exp(x)/2"), seed=7, tol=1e-12)
    assert pde_residual_grid(EQ5(1, -1), s, ((0, 1), (0.5, 2))) <= 1e-12


def test_exact_solution_case6_p0_frozen():
    s = exact_solution(6, {"p": 0, "q": 4, "eps": 1})
    want = parse(f"{3 ** 0.75}*x^-3*exp(3/x)")
    assert equivalent(s.expr, want, seed=8, tol=1e-12)


def test_exact_solution_case6_minus_branch():
    plus = exact_solution(6, {"p": 1, "q": 1, "eps": 1})
    minus = exact_solution(6, {"p": 1, "q": 1, "eps": 1}, branch=-1)
    assert equivalent(minus.expr, neg(plus.expr), seed=30, tol=1e-12)


def test_exact_solution_nonclassical():
    s = exact_solution("nonclassical", {"C": 2})
    eq = nonclassical_equation()
    assert pde_residual_grid(eq, s, ((0, 1), (0.5, 1.5))) <= 1e-12
    free = exact_solution("nonclassical", {})
    assert free.parameters == ("C",)


def test_reality_conditions():
    with pytest.raises(RealityError):
        exact_solution(6, {"p": -1, "q": 1, "eps": 1})  # q^2+16p < 0
    with pytest.raises(RealityError):
        exact_solution(6, {"p": 1, "q": 1, "eps": -1})
    with pytest.raises(RealityError):
        build_reduction(6, "0", {"p": 1, "q": 1, "eps": -1})
    with pytest.raises(RealityError):
        build_reduction(6, "2", {"p": 1, "q": 1, "eps": -1})
    with pytest.raises(RealityError):
        # amplitude base is negative with non-integer exponent -1/3
        exact_solution(4, {"n": 3, "q": 1, "eps": 1})
    with pytest.raises(ReductionError):
        exact_solution(5, {"n": -1, "eps": 1})


def test_algebraic_chain_reproduces_closed_forms():
    for case, params in [
        (6, {"p": 1, "q": 1, "eps": 1}),
        (6, {"p": 0, "q": 4, "eps": 1}),
        (4, {"n": 1, "q": 1, "eps": -1}),
        (5, {"n": 1, "eps": -1}),
    ]:
        chain = reduction_chain_solution(case, params)
        closed = exact_solution(case, params).expr
        assert equivalent(chain, closed, seed=9, tol=1e-12), (case, params)


def test_solve_algebraic_stops_once_the_bracket_collapses(monkeypatch):
    # the roots of case 6 lie above 1, where 1e-16 * root is below the
    # float spacing; one call evaluates the whole grid
    import finsym.reductions as reductions

    real = reductions.compile_expressions
    calls = []

    def counting(*exprs):
        tape = real(*exprs)

        def run(bindings):
            calls.append(bindings)
            return tape(bindings)
        return run

    monkeypatch.setattr(reductions, "compile_expressions", counting)
    for case, params in [
        (6, {"p": 1, "q": 1, "eps": 1}),
        (6, {"p": 0, "q": 4, "eps": 1}),
        (4, {"n": 1, "q": 1, "eps": -1}),
        (5, {"n": 1, "eps": -1}),
    ]:
        calls.clear()
        root = solve_algebraic(case, params)
        assert type(root) is float
        assert len(calls) <= 64, (case, params, len(calls))
        assert np.shape(calls[0]["C"]) == (400,)


def test_order_reduction_instantiations():
    red = order_reduce_61(1, 1, 1)
    want = parse("(4*psi-y)*psi_y + psi + 4*y - (4/3)*y^-3")
    assert equivalent(red.ode, want, seed=10,
                      ranges={"y": (0.5, 2), "psi": (0.5, 2),
                              "psi_y": (0.5, 2)})
    red2 = order_reduce_61(0, 2, -1)
    want2 = parse("(4*psi-2*y)*psi_y + 2*psi + (4/3)*y^-3")
    assert equivalent(red2.ode, want2, seed=11,
                      ranges={"y": (0.5, 2), "psi": (0.5, 2),
                              "psi_y": (0.5, 2)})


def test_order_reduction_consistency():
    report = check_order_reduction_61(1, 1, 1)
    assert report.passed, report.deviation
    report0 = check_order_reduction_61(0, 2, 1)
    assert report0.passed
    with pytest.raises(RealityError):
        check_order_reduction_61(1, 1, -1)


def test_order_check_admits_by_the_kernels_rule():
    # at q = 800 every sample is non-finite: refused, not passed with a NaN
    # multiplier; at q = 120 dy is small at some draws, but dy enters only
    # through psi_y = dpsi/dy, and the ratios agree
    with pytest.raises(ReductionError, match="0 of 5 samples admissible"):
        check_order_reduction_61(1, 800.0)
    report = check_order_reduction_61(1, 120.0)
    assert report.passed and report.deviation <= 1e-8, report
    assert np.isfinite(report.multiplier)


def test_reduction_error_paths():
    eq = EQ4(2, 1, 1)
    r41 = build_reduction(4, "1", {"n": 2, "q": 1, "eps": 1})
    # u = 0 solves the PDE: every ratio is 0
    report = verify_reduction(eq, dataclasses.replace(r41, ansatz=num(0)))
    assert (report.passed, report.deviation, report.multiplier,
            report.note) == (False, float("inf"), 0.0, "degenerate multiplier")
    # phi > 0, so ln(-phi) is NaN at every sample
    with pytest.raises(ReductionError, match="0 of 60 samples admissible"):
        verify_reduction(eq, dataclasses.replace(r41, ansatz=parse("ln(-phi)")))
    # a reduced residual of 0 admits no ratio
    with pytest.raises(ReductionError, match="0 of 60 samples admissible"):
        verify_reduction(eq, dataclasses.replace(r41, reduced=parse("0*phi")))
    # real only for x > 2.5, a fifth of the slice (0.5, 3): too few
    with pytest.raises(ReductionError, match="15 of 60 samples admissible"):
        verify_reduction(eq, dataclasses.replace(
            r41, ansatz=parse("phi*(x-2.5)^0.5")))
    with pytest.raises(ReductionError, match="p must be in"):
        order_reduce_61(2, 1)
    with pytest.raises(ReductionError, match="q must be nonzero"):
        order_reduce_61(1, 0)
    # 15 C^2 + C has no positive root
    with pytest.raises(ReductionError, match="no positive root"):
        solve_algebraic(4, {"n": 1, "q": 1, "eps": 1})


def test_reduction_json():
    r = build_reduction(4, "1", {"n": 2, "q": 1, "eps": 1})
    doc = r.to_json()
    assert doc["label"] == "4.1" and doc["case"] == 4
    assert doc["omega"] == "x"
    assert doc["algebraic"] is None


def test_bad_inputs():
    with pytest.raises(ReductionError):
        build_reduction(4, "3", {"n": 1, "q": 1, "eps": 1})
    with pytest.raises(ReductionError):
        build_reduction(7, "1", {})
    with pytest.raises(ReductionError):
        build_reduction(4, "1", {"n": 0, "q": 1, "eps": 1})
    with pytest.raises(ReductionError, match="case 10"):
        build_reduction(4, "1", {"n": 2, "q": 0, "eps": 1})  # table case 10
    with pytest.raises(ReductionError):
        verify_reduction(EQ4(1, 1, -1),
                         build_reduction(4, "0", {"n": 1, "q": 1, "eps": -1}))
