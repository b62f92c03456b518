"""verify-table: symbolic verdicts over the paper's classification table.

Every item builds fresh expression trees and evaluates each of them once
on about fifty points, so tree building, the fit path of ``classify``
and the jet sampler carry this workload.  Known answers (table case,
algebra dimension, closed forms, image coefficients) are written here and
never taken from finsym's own output.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from finsym import (
    Solution, VectorField, apply_to_equation, build_reduction, classify,
    conservation_laws, differentiate, divergence_residual, equation_from_json,
    equations_equal, evaluate, exact_solution, make_group_element, parse,
    pde_residual_grid, prolonged_residual, substitute, verify_reduction,
)

from common import Workload, close, r3, rng_for, tree_counts

NAME = "verify-table"

#: dimension of the symmetry algebra of each table case, from the paper
EXPECTED_DIM = {1: 1, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3,
                9: 4, 10: 4, 11: 4, 12: 5, 13: 5}
JET_TOL = 1e-9
FOUR_THIRDS = -4.0 / 3.0


def _pu(n):
    return {"family": "power_u", "n": n}


def _spu(n, alpha):
    return {"family": "shifted_power_u", "n": n, "alpha": alpha}


def _px(q, eps):
    return {"family": "power_x", "q": q, "eps": eps}


def _const(c):
    return {"family": "constant", "c": c}


def _h1(p, q, eps):
    return {"family": "h1", "p": p, "q": q, "eps": eps}


def _free(text):
    return {"expr": text}


EXP_U = {"family": "exp_u"}
RECIP = {"family": "reciprocal_shift"}
INV_SQ = {"family": "inverse_square_x"}


def _ex(eps):
    return {"family": "exp_x", "eps": eps}


#: three instantiations of each of the 13 table rows: (case, D, h, x-range)
TABLE = [
    (1, _free("u^2+1"), _free("x^2+x"), None),
    (1, EXP_U, _px(2, 1), None),
    (1, _spu(2, 1), _ex(1), None),
    (2, EXP_U, _const(2), None),
    (2, _free("exp(u)+u"), _const(1), None),
    (2, _spu(3, 1), _const(-1), None),
    (3, _free("u^3+u"), INV_SQ, None),
    (3, EXP_U, _px(-2, 1), None),
    (3, _spu(2, 1), INV_SQ, None),
    (4, _pu(2), _px(3, 1), None),
    (4, _pu(1), _px(1, -1), None),
    (4, _pu(-2), _px(0.5, 1), None),
    (5, _pu(1), _ex(-1), None),
    (5, _pu(3), _ex(1), None),
    (5, _pu(FOUR_THIRDS), _ex(1), None),
    (6, _pu(FOUR_THIRDS), _h1(1, 1, 1), None),
    (6, _pu(FOUR_THIRDS), _h1(0, 2, 1), None),
    (6, _pu(FOUR_THIRDS), _h1(-1, 3, -1), (1.5, 3.0)),
    (7, _free("u+u^2"), _const(0), None),
    (7, _free("u^3+2*u+1"), _const(0), None),
    (7, _free("exp(u)+u^2"), _const(0), None),
    (8, RECIP, _const(1), None),
    (8, RECIP, _const(-1), None),
    (8, _spu(-1, 1), _const(2), None),
    (9, EXP_U, _const(0), None),
    (9, _free("exp(u)"), _const(0), None),
    (9, _free("3*exp(2*u)"), _const(0), None),
    (10, _pu(3), _const(-1), None),
    (10, _pu(1), _const(1), None),
    (10, _pu(-1), _const(0.5), None),
    (11, _spu(2, 1), _const(0), None),
    (11, _pu(2), _const(0), None),
    (11, _pu(-0.5), _const(0), None),
    (12, _pu(FOUR_THIRDS), _const(1), None),
    (12, _pu(FOUR_THIRDS), _const(-1), None),
    (12, _free("u^(-4/3)"), _const(1), None),
    (13, _spu(FOUR_THIRDS, 1), _const(0), None),
    (13, _pu(FOUR_THIRDS), _const(0), None),
    (13, _spu(FOUR_THIRDS, 0), _const(0), None),
]


def _variant_shapes(rng):
    """Free-form row shapes: name -> (case, draw() -> (D text, h text))."""
    def c():
        return r3(rng, 0.5, 2.0)

    def power():
        return f"{c()}*u^{r3(rng, 0.5, 3.0)}"

    def shifted(n):
        return f"{c()}*(u+{r3(rng, 0.2, 2.0)})^({n})"

    def expo():
        return f"{c()}*exp({r3(rng, 0.5, 2.0)}*u)"

    def xpow():
        return f"{c()}*x^{r3(rng, 0.5, 3.0)}"

    def signed():
        return repr(c() if rng.uniform() < 0.5 else -c())

    return {
        "power-xpow": (4, lambda: (power(), xpow())),
        "power-expx": (5, lambda: (power(), f"{-c()}*exp(x)")),
        "power-const": (10, lambda: (power(), signed())),
        "power-zero": (11, lambda: (power(), "0")),
        "shifted-zero": (11, lambda: (shifted(r3(rng, 0.5, 3.0)), "0")),
        "recip-const": (8, lambda: (shifted(-1), signed())),
        "exp-zero": (9, lambda: (expo(), "0")),
        "exp-const": (2, lambda: (expo(), signed())),
        "exp-xpow": (1, lambda: (expo(), xpow())),
        "m43-const": (12, lambda: (f"{c()}*u^(-4/3)", signed())),
        "shifted-m43-zero": (13, lambda: (shifted("-4/3"), "0")),
    }


VARIANTS_PER_SHAPE = 5

#: equations with a field that is NOT a symmetry of them
NEGATIVE_CONTROLS = [
    (_pu(2), _px(3, 1), "0;x;u"),
    (_free("exp(u)+u"), _const(1), "0;x;0"),
    (EXP_U, _const(0), "0;0;1"),
    (_free("u^3+u"), INV_SQ, "0;1;0"),
    (_pu(1), _ex(-1), "t;0;0"),
]
REJECT_ABOVE = 1e-3


# ---------------------------------------------------------------------------
# closed forms (numpy) used as known answers


def h1_np(x, p, q, eps=1):
    if p == -1:
        body = np.abs((x - 1.0) / (x + 1.0)) ** (q / 2.0)
    elif p == 0:
        body = np.exp(-q / x)
    else:
        body = np.exp(q * np.arctan(x))
    return eps * body


def h1_text(p, q, var="x"):
    if p == -1:
        return f"abs(({var}-1)/({var}+1))^({q / 2.0!r})"
    if p == 0:
        return f"exp({-q!r}/{var})"
    return f"exp({q!r}*arctan({var}))"


def case4_amplitude(n, q):
    """u = c x^((q+2)/n) solves u_t = (u^n u_x)_x - x^q u."""
    lead = (q + 2.0) * (n * q + n + q + 2.0)
    return (lead / (n * n)) ** (-1.0 / n)


def case5_amplitude(n):
    """u = c e^(x/n) solves u_t = (u^n u_x)_x - e^x u."""
    return ((n + 1.0) / (n * n)) ** (-1.0 / n)


def case6_amplitude(p, q):
    """u = c (x^2+p)^(-3/2) h1^(-3/4) solves the -4/3 case with eps = 1."""
    return 3.0 ** 0.75 / 8.0 * (q * q + 16.0 * p) ** 0.75


# ---------------------------------------------------------------------------


def _is_free(doc) -> bool:
    return "expr" in doc["D"] or "expr" in doc["h"]


def build(seed: int) -> Workload:
    rng = rng_for(seed, NAME)
    wl = Workload(NAME)
    seen = wl.seen
    seen.update(texts=[], equations=[], residuals=[])

    def zseed():
        return int(rng.integers(0, 2 ** 31 - 1))

    def load(tr, doc):
        with tr.span("model.equation_from_json"):
            eq = equation_from_json(doc)
        if tr.counting:
            seen["equations"].append(eq)
        return eq

    def jet_residual(tr, eq, field, zs, ranges):
        with tr.span("symmetry.prolonged_residual"):
            jr = prolonged_residual(eq, field)
        with tr.span("symmetry.max_relative"):
            value = jr.max_relative(seed=zs, samples=50, ranges=ranges)
        tr.count("symmetry.generators_checked")
        if tr.counting:
            total, unique = tree_counts(jr.terms)
            tr.count("expressions.residual_nodes", total)
            tr.count("expressions.residual_unique_nodes", unique)
            seen["residuals"].append(jr)
        return value

    def verdict(doc, case, x_range):
        fit = _is_free(doc)
        cs, zs = zseed(), zseed()
        ranges = {"x": x_range} if x_range else None
        for spec in (doc["D"], doc["h"]):
            if "expr" in spec:
                seen["texts"].append(spec["expr"])

        def run(tr):
            eq = load(tr, doc)
            with tr.span("classify.fit" if fit else "classify.tagged"):
                result = classify(eq, seed=cs)
            if fit:
                tr.count("classify.fit.calls")
            if result.case != case or len(result.basis) != EXPECTED_DIM[case]:
                return False
            return all(jet_residual(tr, eq, f, zs, ranges) <= JET_TOL
                       for f in result.basis)
        return run

    add = wl.add
    for k, (case, d, h, x_range) in enumerate(TABLE):
        add("row", k, verdict({"D": d, "h": h}, case, x_range))

    k = 0
    for shape, (case, draw) in _variant_shapes(rng).items():
        for _ in range(VARIANTS_PER_SHAPE):
            d, h = draw()
            add(f"variant-{shape}", k,
                verdict({"D": _free(d), "h": _free(h)}, case, None))
            k += 1

    for k, (d, h, triple) in enumerate(NEGATIVE_CONTROLS):
        seen["texts"].extend(triple.split(";"))
        add("control", k, _control({"D": d, "h": h}, triple, zseed(), load,
                                   jet_residual))

    for k, job in enumerate(_reduction_jobs(rng)):
        add("reduction", k, _reduction(*job, zseed(), load))
    corrupt = _corrupted_61(rng)
    seen["texts"].append(corrupt[1])
    add("reduction-control", 0,
        _reduction_control(*corrupt, zseed(), load))

    for k, job in enumerate(_exact_jobs(rng)):
        seen["texts"].append(job[2])
        add("exact", k, _exact(*job, zseed(), load))

    for k, job in enumerate(_conservation_jobs(rng)):
        add("conservation", k, _conservation(*job, zseed(), load))

    for k, job in enumerate(_round_trip_jobs(rng)):
        add("round-trip", k, _round_trip(*job, load))

    wl.probe = lambda tr: _probe(tr, seen, rng_for(seed, NAME + "-probe"))
    return wl


def _control(doc, triple, zs, load, jet_residual):
    def run(tr):
        eq = load(tr, doc)
        field = VectorField.parse_triple(triple)
        # a control that passes the zero test is a failure of the verifier
        return jet_residual(tr, eq, field, zs, None) > REJECT_ABOVE
    return run


def _reduction_jobs(rng):
    """(case, subalgebra, params, equation doc) for the ratio tests."""
    n, q = r3(rng, 0.5, 3.0), r3(rng, 0.5, 3.0)
    eps4 = 1 if rng.uniform() < 0.5 else -1
    n5 = r3(rng, 0.5, 3.0)
    eps5 = 1 if rng.uniform() < 0.5 else -1
    p6, q6 = int(rng.integers(0, 2)), r3(rng, 0.5, 3.0)

    def four(n_, q_, eps):
        return {"n": n_, "q": q_, "eps": eps}, {"D": _pu(n_), "h": _px(q_, eps)}

    def five(n_, eps):
        return {"n": n_, "eps": eps}, {"D": _pu(n_), "h": _ex(eps)}

    six = ({"p": p6, "q": q6, "eps": 1},
           {"D": _pu(FOUR_THIRDS), "h": _h1(p6, q6, 1)})
    return [
        (4, "1", *four(n, q, eps4)),
        (4, "1", *four(-1.0, q, eps4)),
        (4, "2", *four(n, q, eps4)),
        (5, "1", *five(n5, eps5)),
        (5, "1", *five(-1.0, eps5)),
        (5, "2", *five(n5, eps5)),
        (6, "1", *six),
        (6, "2", *six),
    ]


def _reduction(case, sub, params, doc, zs, load):
    def run(tr):
        eq = load(tr, doc)
        with tr.span("reductions.build_reduction"):
            red = build_reduction(case, sub, params)
        with tr.span("reductions.verify_reduction"):
            report = verify_reduction(eq, red, seed=zs, tol=1e-8)
        return report.passed
    return run


def _corrupted_61(rng):
    """6.1 with the wrong phi_ww coefficient (2 instead of 3)."""
    q = r3(rng, 0.5, 3.0)
    params = {"p": 1, "q": q, "eps": 1}
    text = f"2*phi_ww - {h1_text(1, q, 'w')}*phi^(-3)"
    return params, text, {"D": _pu(FOUR_THIRDS), "h": _h1(1, q, 1)}


def _reduction_control(params, text, doc, zs, load):
    def run(tr):
        eq = load(tr, doc)
        with tr.span("reductions.build_reduction"):
            clean = build_reduction(6, "1", params)
        bad = dataclasses.replace(clean, reduced=parse(text))
        with tr.span("reductions.verify_reduction"):
            report = verify_reduction(eq, bad, seed=zs, tol=1e-8)
        return not report.passed
    return run


def _exact_jobs(rng):
    """(case, params, closed-form text, numpy closed form, doc, region)."""
    n, q = r3(rng, 0.5, 3.0), r3(rng, 0.5, 3.0)
    c4, a4 = case4_amplitude(n, q), (q + 2.0) / n
    n5 = r3(rng, 0.5, 3.0)
    c5 = case5_amplitude(n5)
    p6, q6 = int(rng.integers(0, 2)), r3(rng, 0.5, 3.0)
    c6 = case6_amplitude(p6, q6)
    big_c = r3(rng, 0.5, 3.0)
    region = ((0.0, 1.0), (0.5, 2.0))
    return [
        (4, {"n": n, "q": q, "eps": -1}, f"{c4!r}*x^{a4!r}",
         lambda t, x: c4 * x ** a4,
         {"D": _pu(n), "h": _px(q, -1)}, region),
        (5, {"n": n5, "eps": -1}, f"{c5!r}*exp(x/{n5!r})",
         lambda t, x: c5 * np.exp(x / n5),
         {"D": _pu(n5), "h": _ex(-1)}, region),
        (6, {"p": p6, "q": q6, "eps": 1},
         f"{c6!r}*(x^2+{p6})^(-1.5)*({h1_text(p6, q6)})^(-0.75)",
         lambda t, x: c6 * (x * x + p6) ** -1.5 * h1_np(x, p6, q6) ** -0.75,
         {"D": _pu(FOUR_THIRDS), "h": _h1(p6, q6, 1)}, region),
        ("nonclassical", {"C": big_c}, f"{big_c!r}*exp(t*x)",
         lambda t, x: big_c * np.exp(t * x),
         {"D": _pu(-1), "h": _free("x")}, region),
    ]


def _exact(case, params, text, closed, doc, region, zs, load):
    pts = np.random.default_rng(zs)
    ts = pts.uniform(*region[0], size=20)
    xs = pts.uniform(*region[1], size=20)

    def run(tr):
        eq = load(tr, doc)
        catalog = exact_solution(case, params)
        got = evaluate(catalog.expr, {"t": ts, "x": xs})
        if not close(np.broadcast_to(got, xs.shape), closed(ts, xs), 1e-12):
            return False
        with tr.span("numeric.pde_residual_grid"):
            residual = pde_residual_grid(eq, Solution(parse(text)), region,
                                         samples=100, seed=zs)
        return residual <= 1e-10
    return run


def _conservation_jobs(rng):
    """(doc, constant h) for equations with the two-law basis."""
    n, c1 = r3(rng, 0.5, 3.0), r3(rng, 0.5, 2.0)
    c2 = -r3(rng, 0.5, 2.0)
    return [({"D": _pu(n), "h": _const(c1)}, c1),
            ({"D": EXP_U, "h": _const(c2)}, c2)]


def _conservation(doc, c, zs, load):
    pts = np.random.default_rng(zs)
    at = {"t": pts.uniform(0.1, 2.0, 10), "x": pts.uniform(0.5, 3.0, 10),
          "u": pts.uniform(0.5, 3.0, 10)}
    decay = np.exp(-c * at["t"])
    # densities x e^(-ct) u and e^(-ct) u, in the order the paper lists
    known = [at["x"] * decay * at["u"], decay * at["u"]]

    def run(tr):
        eq = load(tr, doc)
        laws = conservation_laws(eq)
        if len(laws) != 2:
            return False
        for law, want in zip(laws, known):
            if not close(np.broadcast_to(evaluate(law.density, at), (10,)),
                         want, 1e-12):
                return False
            with tr.span("conservation.divergence_residual"):
                _, ok = divergence_residual(law, eq, seed=zs, tol=1e-9)
            if not ok:
                return False
        return True
    return run


def _round_trip_jobs(rng):
    """(family, deltas, sign, doc, image check or None, ranges)."""
    def nonzero():
        v = r3(rng, 0.3, 2.0)
        return v if rng.uniform() < 0.5 else -v

    pool = [{"D": _pu(2), "h": _px(3, 1)},
            {"D": _pu(1), "h": _ex(-1)},
            {"D": _free("u^2+1"), "h": _free("x^2+x")},
            {"D": EXP_U, "h": _const(0)}]
    d_np = [lambda u: u ** 2, lambda u: u, lambda u: u ** 2 + 1, np.exp]
    h_np = [lambda x: x ** 3, lambda x: -np.exp(x), lambda x: x ** 2 + x,
            lambda x: 0.0 * x]
    jobs = []
    for k in range(2):
        j = int(rng.integers(0, len(pool)))
        d1, d2, d3, d4, d5 = (nonzero(), r3(rng, -1, 1), nonzero(),
                              r3(rng, -1, 1), nonzero())
        dn, hn = d_np[j], h_np[j]

        def image(u, x, d1=d1, d3=d3, d4=d4, d5=d5, dn=dn, hn=hn):
            return d3 * d3 / d1 * dn(u / d5), hn((x - d4) / d3) / d1
        jobs.append(("Gsim", (d1, d2, d3, d4, d5), 1, pool[j], image, None))
    for k in range(2):
        d3, d4, d5 = r3(rng, 0.5, 2.0), r3(rng, -1, 1), r3(rng, -0.5, 0.5)
        deltas = (r3(rng, 0.5, 2.0), r3(rng, -1, 1), d3, d4, d5,
                  (1 + d4 * d5) / d3)
        jobs.append(("G1", deltas, 1 if k else -1,
                     {"D": _pu(FOUR_THIRDS), "h": _h1(1, 2, 1)}, None,
                     {"x": (2.0, 3.0)}))
    for k in range(2):
        d1, d2, d3, d4, d5, d6 = (nonzero(), r3(rng, -1, 1), nonzero(),
                                  r3(rng, -1, 1), nonzero(), r3(rng, -1, 1))

        def image(u, x, d1=d1, d3=d3, d5=d5, d6=d6):
            return d3 * d3 / d1 * ((u - d6) / d5) ** 2, 0.0 * x
        jobs.append(("G2", (d1, d2, d3, d4, d5, d6), 1,
                     {"D": _pu(2), "h": _const(0)}, image, None))
    return jobs


def _round_trip(family, deltas, sign, doc, image, ranges, load):
    us = np.linspace(0.6, 2.9, 12)
    xs = np.linspace(0.6, 2.9, 12)

    def run(tr):
        eq = load(tr, doc)
        transformation = make_group_element(family, deltas, sign=sign)
        with tr.span("equivalence.apply_to_equation"):
            img = apply_to_equation(transformation, eq)
        if image is not None:
            want_d, want_h = image(us, xs)
            got_d = np.broadcast_to(evaluate(img.d_expr(), {"u": us}), (12,))
            got_h = np.broadcast_to(evaluate(img.h_expr(), {"x": xs}), (12,))
            if not (close(got_d, want_d, 1e-10)
                    and close(got_h, want_h, 1e-10)):
                return False
        with tr.span("equivalence.apply_to_equation"):
            back = apply_to_equation(transformation.inverse(), img)
        with tr.span("model.equations_equal"):
            return equations_equal(eq, back, tol=1e-12, ranges=ranges)
    return run


_PROBE_U = "t*x+1"


def _probe(tr, seen, rng):
    """Time the engine's public calls on this workload's own expressions."""
    for text in seen["texts"]:
        with tr.span("expressions.parse"):
            parse(text)
    u_of = parse(_PROBE_U)
    for eq in seen["equations"]:
        d = eq.d_expr()
        with tr.span("expressions.differentiate"):
            differentiate(d, "u")
        with tr.span("expressions.substitute"):
            substitute(d, {"u": u_of})
    jet = {s: rng.uniform(0.5, 2.0, 50)
           for s in ("t", "x", "u", "u_t", "u_x", "u_xx")}
    for jr in seen["residuals"]:
        for term in jr.terms:
            with tr.span("expressions.evaluate_batch"):
                evaluate(term, jet)
