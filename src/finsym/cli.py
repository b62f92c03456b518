"""Command line front end.

Subcommands: classify, symmetries, verify-symmetry, transform, reduce,
exact, conserve, simulate, residual.  Equations come from JSON files with
"D" and "h" specs; machine output via --json.  Exit codes: 0 success,
1 verification failure, 2 usage or input error.

Each subcommand imports the modules it runs, so ``classify``,
``symmetries`` and ``reduce`` on tagged equations never import numpy,
only ``transform`` imports :mod:`finsym.equivalence`, and only
``simulate`` imports the finite-difference solver, :mod:`finsym.numeric`.

:func:`main` is the in-process API: it takes the arguments and returns the
exit code.  :func:`run` is the process entry, of the ``finsym`` console
script and of ``python -m finsym.cli``.  It freezes the heap after
:func:`main` returns, so the collection at interpreter shutdown does not
scan the objects the imports left, numpy's about 23k among them; atexit
handlers and the flushes of stdout and stderr still run.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from .classify import classify
from .expressions import ExpressionError, parse
from .model import (
    ADDITIONAL_MAP_LABELS, ModelError, NumericError, SchemaError, Solution,
    VectorField, equation_to_json, equations_equal, load_equation_file,
    pde_residual_grid,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


def _default_seed() -> int:
    env = os.environ.get("FINSYM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ModelError(f"FINSYM_SEED must be an integer, got {env!r}")
    return 42


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="finsym",
        description="classification, symmetries, transformations, "
                    "reductions and conservation laws for equations "
                    "u_t = (D(u) u_x)_x + h(x) u")
    sub = top.add_subparsers(dest="command", required=True)

    def common(name, func, help, document=True, tol=False):
        """A subcommand; ``--json`` where it prints a document, ``--tol``
        where it compares a residual with a tolerance."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--eq", required=True, help="equation JSON file")
        if document:
            p.add_argument("--json", action="store_true", dest="as_json",
                           help="machine-readable output")
        p.add_argument("--seed", type=int, default=None)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=1e-9)
        return p

    common("classify", _cmd_classify, "table case and symmetry basis"
           ).set_defaults(basis_only=False)
    common("symmetries", _cmd_classify, "symmetry basis only"
           ).set_defaults(basis_only=True)

    p = common("verify-symmetry", _cmd_verify_symmetry,
               "check a candidate generator", tol=True)
    p.add_argument("--field", required=True,
                   help="three ';'-separated coefficients: tau;xi;eta")

    p = common("transform", _cmd_transform, "apply a named map")
    p.add_argument("--map", required=True, dest="map_label",
                   choices=sorted(ADDITIONAL_MAP_LABELS))

    p = common("reduce", _cmd_reduce, "similarity reduction")
    p.add_argument("--sub", required=True, choices=["0", "1", "2"])

    common("exact", _cmd_exact, "closed-form solution + residual", tol=True)

    common("conserve", _cmd_conserve, "conservation laws + divergence check",
           tol=True)

    p = common("simulate", _cmd_simulate, "finite-difference run, CSV",
               document=False)
    p.add_argument("--initial", required=True, help="u(x) at t=0")
    p.add_argument("--left", help="left Dirichlet value as expression in t")
    p.add_argument("--right", help="right Dirichlet value as expression in t")
    p.add_argument("--noflux", action="store_true")
    p.add_argument("--xa", type=float, required=True)
    p.add_argument("--xb", type=float, required=True)
    p.add_argument("--m", type=int, default=81)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--method", choices=["explicit", "implicit"],
                   default="explicit")

    p = common("residual", _cmd_residual,
               "max PDE residual of a candidate u(t,x)")
    p.add_argument("--solution", required=True)
    p.add_argument("--t-range", default="0.1,1")
    p.add_argument("--x-range", default="0.5,2")
    p.add_argument("--samples", type=int, default=100)
    return top


def _emit(doc: dict, as_json: bool):
    if as_json:
        print(json.dumps(doc))
        return
    for key, value in doc.items():
        print(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")


def _pair(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        lo = hi = math.nan
    if not -math.inf < lo < hi < math.inf:
        raise ModelError(
            f"expected finite 'lo,hi' with lo < hi, got {text!r}")
    return lo, hi


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return tol


def _check_params(params: dict, command: str, fixed=(), read=()):
    """Refuse every key of the file's ``params`` but those in ``read``; a
    key that the classification already fixes is named as such."""
    clash = sorted(set(fixed) & set(params))
    if clash:
        raise SchemaError(f"params {clash} are fixed by the classification")
    unread = sorted(set(params) - set(read))
    if unread:
        raise SchemaError(f"params {unread} are not read by {command}")


def _load(args):
    """The equation of a file whose ``params`` the subcommand reads none of."""
    eq, params = load_equation_file(args.eq)
    _check_params(params, args.command)
    return eq


def _cmd_classify(args) -> int:
    eq = _load(args)
    result = classify(eq, seed=args.seed)
    doc = result.to_json()
    if args.basis_only:
        doc = {"basis": doc["basis"]}
    _emit(doc, args.as_json)
    return EXIT_OK


def _cmd_verify_symmetry(args) -> int:
    from .symmetry import symmetry_residual

    eq = _load(args)
    field = VectorField.parse_triple(args.field)
    residual = symmetry_residual(eq, field, seed=args.seed)
    passed = residual <= args.tol
    _emit({"passed": passed, "max_residual": residual}, args.as_json)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_transform(args) -> int:
    from .equivalence import (
        OutsideClassReport, apply_to_equation, map_by_label,
    )

    eq, params = load_equation_file(args.eq)
    source = classify(eq, seed=args.seed)
    case_from = ADDITIONAL_MAP_LABELS[args.map_label][0]
    if source.case != case_from:
        raise ModelError(f"map {args.map_label!r} takes case {case_from}; "
                         f"the equation is case {source.case}")
    _check_params(params, args.command, fixed=source.params)
    transformation, target = map_by_label(args.map_label, source.params)
    image = apply_to_equation(transformation, eq)
    if isinstance(image, OutsideClassReport):
        _emit({"map": args.map_label, "outside_class": True,
               "target": image.target, "note": image.note}, args.as_json)
        return EXIT_OK
    result = classify(image, seed=args.seed)
    doc = {
        "map": args.map_label,
        "transformed": equation_to_json(image),
        "target_case": target[0],
        "target_params": {k: v for k, v in target[1].items()},
        "classified_case": result.case,
    }
    _emit(doc, args.as_json)
    return EXIT_OK if result.case == target[0] else EXIT_VERIFICATION


def _cmd_reduce(args) -> int:
    from .reductions import build_reduction

    eq, params = load_equation_file(args.eq)
    result = classify(eq, seed=args.seed)
    _check_params(params, args.command, fixed=result.params)
    reduction = build_reduction(result.case, args.sub, result.params)
    _emit(reduction.to_json(), args.as_json)
    return EXIT_OK


def _cmd_exact(args) -> int:
    from .reductions import _PM1_X_RANGE, exact_solution, nonclassical_equation

    eq, params = load_equation_file(args.eq)
    if equations_equal(eq, nonclassical_equation(), tol=1e-9):
        _check_params(params, args.command, read={"C"})
        solution = exact_solution("nonclassical",
                                  {"C": params.get("C", 1.0)})
        case_label = "nonclassical"
    else:
        result = classify(eq, seed=args.seed)
        _check_params(params, args.command, fixed=result.params)
        solution = exact_solution(result.case, result.params)
        case_label = result.case
    x_range = (0.5, 2.0)
    if case_label == 6 and result.params["p"] == -1:
        x_range = _PM1_X_RANGE
    residual = pde_residual_grid(eq, solution, ((0.0, 1.0), x_range),
                                 samples=100, seed=args.seed)
    doc = {"case": case_label, "solution": str(solution.expr),
           "domain": solution.domain, "max_residual": residual}
    _emit(doc, args.as_json)
    return EXIT_OK if residual <= args.tol else EXIT_VERIFICATION


def _cmd_conserve(args) -> int:
    from .conservation import conservation_laws, divergence_residual

    eq = _load(args)
    laws = conservation_laws(eq)
    entries = []
    all_passed = True
    for law in laws:
        _, passed = divergence_residual(law, eq, seed=args.seed,
                                        tol=args.tol)
        all_passed = all_passed and passed
        entries.append({**law.to_json(), "divergence_ok": passed})
    _emit({"count": len(entries), "laws": entries}, args.as_json)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def _cmd_simulate(args) -> int:
    from .numeric import DirichletBC, Grid, NoFluxBC, solve_pde

    eq = _load(args)
    if args.noflux:
        if args.left is not None or args.right is not None:
            raise ModelError("--noflux excludes --left and --right")
        bc = NoFluxBC()
    else:
        if not (args.left and args.right):
            raise ModelError(
                "simulate requires --left and --right, or --noflux")
        bc = DirichletBC(parse(args.left), parse(args.right))
    grid = Grid(args.xa, args.xb, args.m, args.t_final, args.dt)
    field = solve_pde(eq, parse(args.initial), bc, grid, method=args.method)
    sys.stdout.write(field.to_csv())
    return EXIT_OK


def _cmd_residual(args) -> int:
    eq = _load(args)
    solution = Solution(parse(args.solution))
    region = (_pair(args.t_range), _pair(args.x_range))
    residual = pde_residual_grid(eq, solution, region,
                                 samples=args.samples, seed=args.seed)
    _emit({"max_residual": residual}, args.as_json)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "seed", None) is None:
        try:
            args.seed = _default_seed()
        except ModelError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (ModelError, ExpressionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def run():
    """Run :func:`main` on ``sys.argv`` and exit the process with its code."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
