import math

import numpy as np
import pytest

from finsym.expressions import (
    Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym,
    NoAdmissibleSampleError, ParseError, UnboundSymbolError,
    UnknownFunctionError, add, call, compile_expressions, differentiate, div,
    equivalent, evaluate, mul, parse, pow_, sub, substitute, sym, to_string,
)

_FUNCTIONS = {"exp": np.exp, "ln": np.log, "abs": np.abs,
              "arctan": np.arctan, "sign": np.sign}


def _reference(e, values):
    """A plain recursive evaluator, one numpy operation per node kind,
    written apart from the package's tape.

    Arithmetic is written with operators: on two numpy scalars they run
    numpy's scalar math, whose power can differ from ``np.power``'s in the
    last bit, and whose sum or product of two NaNs from the ufunc's in the
    sign bit.
    """
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Sym):
        return values[e.name]
    if isinstance(e, Neg):
        return -_reference(e.arg, values)
    if isinstance(e, Call):
        return _FUNCTIONS[e.fn](_reference(e.arg, values))
    a, b = _reference(e.left, values), _reference(e.right, values)
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    if isinstance(e, Mul):
        return a * b
    if isinstance(e, Div):
        return a / b
    assert isinstance(e, Pow)
    return a ** b


def _tape(e, bindings):
    """``e`` through a compiled tape, checked bit for bit against
    :func:`_reference`."""
    (got,) = compile_expressions(e)(bindings)
    values = {k: np.asarray(v, dtype=np.float64) if isinstance(v, np.ndarray)
              else np.float64(v) for k, v in bindings.items()}
    with np.errstate(all="ignore"):
        want = np.broadcast_to(_reference(e, values), np.shape(got))
    assert np.asarray(got).dtype == np.float64
    assert np.asarray(got).tobytes() == want.tobytes()
    return got


EVALUATORS = (evaluate, _tape)


def test_parse_power_of_symbols():
    e = parse("u^n")
    assert isinstance(e, Pow)
    assert e.left == Sym("u") and e.right == Sym("n")


def test_parse_h1_branch():
    e = parse("eps*exp(q*arctan(x))")
    assert isinstance(e, Mul)
    assert e.free_symbols() == {"eps", "q", "x"}


def test_parse_literal_zero():
    assert parse("0") == Num(0.0)


def test_precedence_and_associativity():
    # ^ binds tighter than unary minus, and is right-associative
    assert parse("-x^2") == Neg(Pow(Sym("x"), Num(2.0)))
    assert evaluate(parse("2^3^2"), {}) == 512.0
    assert evaluate(parse("2^-1"), {}) == 0.5
    # left-associative sums and products
    assert evaluate(parse("8-3-2"), {}) == 3.0
    assert evaluate(parse("12/3/2"), {}) == 2.0


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("x + ")
    assert err.value.offset == 4
    with pytest.raises(UnknownFunctionError):
        parse("sinh(x)")
    with pytest.raises(ParseError):
        parse("x + $")


X, Y, Z = Sym("x"), Sym("y"), Sym("z")


@pytest.mark.parametrize("text,tree", [
    ("x*-y", Mul(X, Neg(Y))),
    ("x^-y^-z", Pow(X, Neg(Pow(Y, Neg(Z))))),
    ("-x*y", Mul(Neg(X), Y)),
    ("x- -y", Sub(X, Neg(Y))),
    ("x/-y^2", Div(X, Neg(Pow(Y, Num(2.0))))),
])
def test_unary_minus_after_each_operator(text, tree):
    assert parse(text) == tree
    assert parse(to_string(tree)) == tree


@pytest.mark.parametrize("text,error,offset", [
    ("x*/y", ParseError, 2), ("2^", ParseError, 2), ("(x", ParseError, 2),
    ("2^^3", ParseError, 2), ("x y", ParseError, 2), ("exp x", ParseError, 0),
    ("sinh(x)", UnknownFunctionError, 0),
    # a literal that overflows would make a tree to_string cannot print
    ("x+1e999", ParseError, 2),
])
def test_malformed_inputs_carry_offsets(text, error, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert type(err.value) is error and err.value.offset == offset


CORPUS = [
    "u^n",
    "eps*exp(q*arctan(x))",
    "0",
    "x^2+p",
    "abs((x-1)/(x+1))^2",
    "exp(-q/x)",
    "-4*q*t",
    "4*(x^2+1)",
    "-(3*((4*x+2)*u))",
    "exp(-t)*u",
    "-(exp(-t)*(u*u_x))",
    "x^3/15",
    "2*exp(t*x)",
    "1/(u+1)",
    "u^-1.3333333333333333",
    "sign(u)*u_x",
    "ln(abs(t))",
    "x*-3",
    "(x^y)^z",
    "x^y^z",
    "a-(b+c)",
    "1e-09*x",
]


@pytest.mark.parametrize("text", CORPUS)
def test_print_parse_print_fixed_point(text):
    once = to_string(parse(text))
    assert to_string(parse(once)) == once


def test_differentiate_polynomial():
    e = parse("x^2+p")
    assert equivalent(differentiate(e, "x"), parse("2*x"), seed=1)


def test_differentiate_power_rule():
    d = differentiate(parse("u^n"), "u")
    assert equivalent(d, parse("n*u^(n-1)"), seed=2)


def test_differentiate_general_power_rule():
    # an exponent that depends on the variable brings in ln of the base
    assert equivalent(differentiate(parse("x^x"), "x"),
                      parse("x^x*(ln(x)+1)"), seed=5)
    assert equivalent(differentiate(parse("2^(t*x)"), "t"),
                      parse("ln(2)*x*2^(t*x)"), seed=6)


def test_differentiate_chain_rule():
    d = differentiate(parse("eps*exp(q*arctan(x))"), "x")
    want = parse("eps*q/(1+x^2)*exp(q*arctan(x))")
    assert equivalent(d, want, seed=3)


def test_differentiate_with_dependencies():
    # total derivative in x with u = u(t, x): d/dx f(x, u) = f_x + u_x f_u
    e = parse("x*u^2")
    d = differentiate(e, "x", deps={"u": ("t", "x")})
    want = parse("u^2 + x*2*u*u_x")
    assert equivalent(d, want, seed=4)
    # mixed suffixes stay canonical: d/dt u_x -> u_tx
    dd = differentiate(parse("u_x"), "t", deps={"u_x": ("t", "x")})
    assert dd == Sym("u_tx")
    assert differentiate(parse("u_t"), "x", deps={"u_t": ("x",)}) == Sym("u_tx")


def test_evaluate_examples():
    for ev in EVALUATORS:
        assert ev(parse("x^2+p"), {"x": 2, "p": 1}) == 5.0
        # frozen: direct evaluation of the p=0 profile at x=1, q=1, eps=1
        v = ev(parse("exp(-q/x)"), {"q": 1.0, "x": 1.0})
        assert abs(v - math.exp(-1)) < 1e-15
        assert v == pytest.approx(0.3678794412, abs=1e-10)
        assert ev(parse("sign(u)"), {"u": 0.0}) == 0.0


def test_evaluate_ieee_semantics():
    for ev in EVALUATORS:
        assert np.isinf(ev(parse("1/x"), {"x": 0.0}))
        assert np.isnan(ev(parse("ln(x)"), {"x": -1.0}))
        assert np.isnan(ev(parse("x^0.5"), {"x": -4.0}))
        assert np.isnan(ev(parse("(-8)^(1/3)"), {}))
        assert ev(parse("(-8)^3"), {}) == -512.0
        assert np.isinf(ev(parse("exp(x)"), {"x": 1000.0}))


def test_evaluate_vectorized():
    xs = np.linspace(0.5, 2.0, 7)
    for ev in EVALUATORS:
        vals = ev(parse("x^2+1"), {"x": xs})
        assert np.allclose(vals, xs ** 2 + 1)
    # a derivative tree with shared subtrees, including non-finite points
    e = differentiate(differentiate(
        parse("ln(x-1)*abs(u)^n/(x-u)+arctan(exp(-u/x))"), "x"), "u")
    us = np.linspace(-1.0, 2.0, 7)
    _tape(e, {"x": xs, "u": us, "n": 1.5})
    _tape(e, {"x": 1.5, "u": us, "n": 2.0})


def test_evaluate_unbound_symbol():
    for ev in EVALUATORS:
        with pytest.raises(UnboundSymbolError):
            ev(parse("x+y"), {"x": 1.0})
    run = compile_expressions(parse("x+y"))  # raises only when called
    with pytest.raises(UnboundSymbolError):
        run({"x": np.ones(3)})


def test_positional_core_gives_the_bits_of_run():
    # the core runs run's steps in the same order, so its outputs carry
    # the same bits, NaN payloads and signed zeros included; it does not
    # broadcast a constant or copy a bound array
    exprs = (differentiate(parse("ln(x-1)*abs(u)^n/(x-u)"), "x"), parse("x"),
             parse("2"), parse("-u*x"), parse("-u*x"))
    run = compile_expressions(*exprs)
    core = run.bind(("n", "unused", "x", "u"))  # any order, extra names too
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, 1.5, -2.0]
    xs = np.array(special * len(special))
    us = np.repeat(special, len(special))
    with np.errstate(all="ignore"):
        got = core(np.float64(1.5), np.float64(np.nan), xs, us)
    want = run({"x": xs, "u": us, "n": 1.5})
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert np.broadcast_to(g, w.shape).tobytes() == w.tobytes()
    assert got[1] is xs and got[3] is got[4]
    assert type(got[2]) is np.float64
    # scalars in, scalars out
    with np.errstate(all="ignore"):
        got = core(np.float64(2.0), np.float64(0.0), np.float64(-0.0),
                   np.float64(np.inf))
    want = run({"n": 2.0, "x": -0.0, "u": np.inf})
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_bind_checks_the_order_once():
    run = compile_expressions(parse("x+y"), parse("2*z"))
    for order in ((), ("x", "y"), ("x", "w", "y")):
        with pytest.raises(UnboundSymbolError, match="unbound symbol"):
            run.bind(order)  # when bound, not when called
    with pytest.raises(UnboundSymbolError, match="unbound symbol 'z'"):
        run({"x": 1.0, "y": 2.0})  # run still raises on the call
    core = run.bind(("z", "t", "y", "x"))
    with np.errstate(all="ignore"):
        assert core(np.float64(3.0), np.float64(np.nan), np.float64(2.0),
                    np.float64(1.0)) == [3.0, 6.0]


def _one_by_one(*exprs):
    """Each expression through ``evaluate`` on its own, with the calling
    convention of a compiled tape."""
    return lambda bindings: tuple(evaluate(e, bindings) for e in exprs)


def test_compile_broadcasts_to_the_bindings_shape():
    # one tape or one tape per expression, the contract is the same:
    # float64 of the bindings' shape, fresh arrays, never a bound array
    xs = np.linspace(0.5, 2.0, 7)
    for make in (compile_expressions, _one_by_one):
        run = make(parse("2"), parse("x"), parse("t*3"), parse("t*x"),
                   parse("t*x"))
        outs = run({"t": 0.5, "x": xs})
        for v in outs:
            assert isinstance(v, np.ndarray) and v.dtype == np.float64
            assert v.shape == (7,) and v.flags.writeable
        assert np.all(outs[0] == 2.0) and np.all(outs[2] == 1.5)
        assert np.array_equal(outs[1], xs)
        assert not np.shares_memory(outs[1], xs)
        assert np.array_equal(outs[3], 0.5 * xs)
        assert np.array_equal(outs[4], outs[3])
        assert not np.shares_memory(outs[3], outs[4])
        # scalar bindings give shape (); no bindings at all, too
        assert [np.shape(v) for v in run({"t": 1.0, "x": 2.0})] == [()] * 5
        (c,) = make(parse("2"))({})
        assert np.shape(c) == () and c == 2.0


def test_compile_keeps_signed_zeros_apart():
    run = compile_expressions(div(Num(1.0), Num(0.0)),
                              div(Num(1.0), Num(-0.0)))
    pos, neg = run({})
    assert pos == np.inf and neg == -np.inf


def test_substitute_simultaneous():
    e = parse("x*y")
    out = substitute(e, {"x": parse("y"), "y": parse("x")})
    assert equivalent(out, parse("y*x"), seed=5)


def test_equivalent_examples():
    assert equivalent(parse("2*x"), differentiate(parse("x^2"), "x"), seed=6)
    assert not equivalent(parse("(x-1)/(x+1)"), parse("x"), seed=7)


def test_equivalent_symmetric_reflexive():
    a, b = parse("x^2+1"), parse("(x+1)^2-2*x")
    assert equivalent(a, a, seed=8)
    assert equivalent(a, b, seed=9) == equivalent(b, a, seed=9)
    assert equivalent(a, b, seed=10)


def test_equivalent_no_admissible_sample():
    with pytest.raises(NoAdmissibleSampleError):
        equivalent(parse("ln(-1-x^2)"), parse("ln(-2-x^2)"), seed=11)


def _random_tree(rng, depth):
    """Random polynomial-style tree over x with +, -, * and small powers."""
    if depth == 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.5:
            return sym("x")
        return Num(float(rng.integers(-3, 4)))
    op = rng.integers(0, 4)
    left = _random_tree(rng, depth - 1)
    if op == 3:
        return pow_(left, int(rng.integers(1, 4)))
    right = _random_tree(rng, depth - 1)
    return [add, sub, mul][op](left, right)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(1000):
        tree = _random_tree(rng, int(rng.integers(1, 7)))
        d = differentiate(tree, "x")
        x0 = float(rng.uniform(0.5, 2.0))
        h = 1e-6
        fp = float(evaluate(tree, {"x": x0 + h}))
        fm = float(evaluate(tree, {"x": x0 - h}))
        want = (fp - fm) / (2 * h)
        got = float(evaluate(d, {"x": x0}))
        if not (np.isfinite(want) and np.isfinite(got)):
            continue
        scale = 1.0 + abs(want) + abs(got)
        assert abs(got - want) <= 1e-5 * scale, to_string(tree)
        checked += 1
    assert checked > 900


def test_constant_folding_and_identities():
    assert parse("0+x") == Sym("x")
    assert parse("1*x") == Sym("x")
    assert parse("x^1") == Sym("x")
    assert parse("2+3") == Num(5.0)
    assert parse("x^0") == Num(1.0)
    # non-finite folds are kept as nodes, never as literals
    assert not isinstance(parse("1/0"), Num)


def _fold_grid(rng, special, count, log_range):
    """``special`` then ``count`` seeded values of both signs, their
    magnitudes log-uniform over ``log_range``."""
    magnitudes = 10.0 ** rng.uniform(*log_range, size=count)
    return [*special, *(magnitudes * rng.choice([-1.0, 1.0], size=count))]


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def test_power_folds_to_the_bits_of_numpys_scalar_power():
    rng = np.random.default_rng(1818)
    bases = _fold_grid(rng, [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 10.0],
                       60, (-4, 4))
    exponents = _fold_grid(rng, [-1.0, 0.5, -0.5, 2.0, 3.0, -3.0, 1 / 3,
                                 400.0, -400.0], 60, (-2, 2.5))
    kept = 0
    for a in bases:
        for b in exponents:
            with np.errstate(all="ignore"):
                want = np.float64(a) ** np.float64(b)
            got = pow_(Num(a), Num(b))
            if np.isfinite(want):
                assert isinstance(got, Num) and _bits(got.value) == _bits(
                    want), (a, b)
            else:
                assert isinstance(got, Pow), (a, b)
                kept += 1
    assert kept > 100
    # the cases that must not fold: a pole, a complex value, an overflow
    for a, b in ((0.0, -1.0), (-2.0, 0.5), (10.0, 400.0)):
        assert pow_(Num(a), Num(b)) == Pow(Num(a), Num(b))


def test_call_folds_to_the_bits_of_numpys_ufunc():
    rng = np.random.default_rng(1819)
    args = _fold_grid(rng, [0.0, -0.0, 1.0, -1.0, 709.0, 710.0, -746.0,
                            1e308], 2000, (-3, 3))
    kept = 0
    for fn, ufunc in _FUNCTIONS.items():
        for v in args:
            with np.errstate(all="ignore"):
                want = ufunc(np.float64(v))
            got = call(fn, Num(v))
            if np.isfinite(want):
                assert isinstance(got, Num) and _bits(got.value) == _bits(
                    want), (fn, v)
            else:
                assert got == Call(fn, Num(v)), (fn, v)
                kept += 1
    assert kept > 1000  # ln of each negative argument, exp overflows


def test_negative_literal_printing_round_trip():
    e = Pow(Num(-2.0), Num(2.0))
    assert to_string(e) == "(-2)^2"
    assert evaluate(parse(to_string(e)), {}) == 4.0


def _random_full_tree(rng, depth):
    """Random tree over every node kind, avoiding foldable all-literal ops."""
    from finsym.expressions import add, call, div, mul, neg, pow_, sub
    if depth == 0:
        return [sym("x"), sym("y"), Num(float(rng.integers(-3, 4)))][
            rng.integers(0, 3)]
    kind = rng.integers(0, 7)
    a = _random_full_tree(rng, depth - 1)
    if kind == 0:
        return neg(a)
    if kind == 1:
        return call(["exp", "ln", "abs", "arctan", "sign"][rng.integers(0, 5)],
                    a)
    b = _random_full_tree(rng, depth - 1)
    if kind == 2:
        return add(a, b)
    if kind == 3:
        return sub(a, b)
    if kind == 4:
        return mul(a, b)
    if kind == 5:
        return div(a, b)
    return pow_(a, b)


def test_random_trees_round_trip_through_the_printer():
    # printed form re-parses to the identical tree (post-folding domain)
    rng = np.random.default_rng(424242)
    for _ in range(500):
        tree = _random_full_tree(rng, int(rng.integers(1, 6)))
        assert parse(to_string(tree)) == tree, to_string(tree)


def test_random_trees_evaluate_to_the_reference_bits():
    # the printer's corpus, on arrays (non-finite points included) and on
    # scalars, where a power of two scalars takes numpy's scalar path
    rng = np.random.default_rng(424242)
    xs, ys = np.linspace(-2.5, 3.0, 12), np.linspace(3.0, -0.5, 12)
    for _ in range(500):
        tree = _random_full_tree(rng, int(rng.integers(1, 6)))
        _tape(tree, {"x": xs, "y": ys})
        _tape(tree, {"x": xs, "y": 0.75})
        _tape(tree, {"x": -1.5, "y": 2.5})
