import math

import numpy as np
import pytest

import finsym.expressions
from finsym.expressions import (
    Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym,
    ExpressionError, NoAdmissibleSampleError, ParseError, UnboundSymbolError,
    UnknownFunctionError, add, call, compile_expressions, differentiate, div,
    equivalent, evaluate, max_relative, mul, neg, parse, pow_, sample_finite,
    sub, substitute, sym, to_string,
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


def test_differentiate_gives_zero_for_a_constant_quotient():
    # 1/0 and ln(0) do not fold, but their derivatives are 0, so a finite
    # D built on them differentiates to a finite expression
    d = differentiate(parse("u*(2+arctan(1/(0)))"), "u")
    assert to_string(d) == "2+arctan(1/0)"
    assert differentiate(parse("ln(0)"), "u") == Num(0.0)
    # a quotient whose operands depend on the variable keeps the quotient
    # rule, so d(x/0)/dx stays non-finite
    with np.errstate(all="ignore"):
        assert not math.isfinite(
            evaluate(differentiate(parse("x/0"), "x"), {"x": 1.0}))


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
    ns = np.full(xs.shape, 1.5)
    with np.errstate(all="ignore"):
        got = core(ns, np.full(xs.shape, np.nan), xs, us)
    want = run({"x": xs, "u": us, "n": ns})
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert np.broadcast_to(g, w.shape).tobytes() == w.tobytes()
    assert got[1] is xs and got[3] is got[4]
    assert type(got[2]) is np.float64
    # one point, as arrays of one element
    n, x, u = np.array([2.0]), np.array([-0.0]), np.array([np.inf])
    with np.errstate(all="ignore"):
        got = core(n, np.array([0.0]), x, u)
    want = run({"n": n, "x": x, "u": u})
    for g, w in zip(got, want):
        assert np.broadcast_to(g, w.shape).tobytes() == w.tobytes()


def test_bind_checks_the_order_once():
    run = compile_expressions(parse("x+y"), parse("2*z"))
    for order in ((), ("x", "y"), ("x", "w", "y")):
        with pytest.raises(UnboundSymbolError, match="unbound symbol"):
            run.bind(order)  # when bound, not when called
    with pytest.raises(UnboundSymbolError, match="unbound symbol 'z'"):
        run({"x": 1.0, "y": 2.0})  # run still raises on the call
    core = run.bind(("z", "t", "y", "x"))
    with np.errstate(all="ignore"):
        got = core(*map(np.array, ([3.0], [np.nan], [2.0], [1.0])))
    assert [g.tolist() for g in got] == [[3.0], [6.0]]


def _core_bits_match_run(run, order, values):
    """Call ``run.bind(order)`` on ``values`` (one per name of ``order``)
    and assert that each output has the bits of ``run``'s."""
    core = run.bind(order)
    with np.errstate(all="ignore"):
        got = core(*values)
    want = run(dict(zip(order, values)))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.broadcast_to(g, w.shape).tobytes() == w.tobytes()
    return got


def test_generated_core_takes_any_symbol_name():
    # names are bound by position: none is written into the core's source,
    # not even one that reads as a name of that source or is no identifier
    names = ("u l", "1x", "a0", "r1", "c2", "f0", "x)+(")
    u_l, one_x, a0, r1, c2, f0, bad = map(Sym, names)
    exprs = (Add(Mul(u_l, one_x), Call("exp", Neg(a0))),
             Div(Pow(r1, Num(-0.0)), Sub(c2, Call("ln", f0))),
             Mul(bad, Num(float("nan"))))
    run = compile_expressions(*exprs)
    values = [np.full(5, v) for v in (1.5, -0.0, 2.0, np.nan, 0.5, 3.0)]
    values.append(np.linspace(-1.0, 1.0, 5))
    order = names[::-1]  # parameters follow the order, not the tape
    got = _core_bits_match_run(run, order, values[::-1])
    assert got[0].shape == (5,)


def test_generated_core_of_a_long_chained_sum():
    # each partial sum reuses the one before, so the trees are walked
    # shallowly; the core is 2,500 assignments, each on the previous one
    x = Sym("x")
    partials = [x]
    for i in range(2500):
        partials.append(Add(partials[-1], Num(i / 7)))
    run = compile_expressions(*partials)
    got = _core_bits_match_run(run, ("x",), [np.linspace(0.0, 1.0, 3)])
    assert len(got) == 2501


def test_generated_core_outputs():
    # a bound symbol is returned as bound, a constant keeps its bits (a
    # signed zero, a NaN) and is not broadcast, a repeated output is one
    # object; bind keeps one core per order
    nan = float("nan")
    exprs = (parse("x"), Num(-0.0), Num(nan), Neg(Num(nan)), parse("x*y"),
             parse("x*y"), parse("y"), parse("x"))
    run = compile_expressions(*exprs)
    xs = np.array([0.0, -0.0, np.nan, np.inf, -2.5])
    ys = np.full(xs.shape, -0.0)
    got = _core_bits_match_run(run, ("y", "x"), [ys, xs])
    assert got[0] is xs and got[7] is xs and got[4] is got[5]
    assert type(got[1]) is np.float64 and type(got[2]) is np.float64
    assert got[6] is ys
    assert run.bind(("y", "x")) is run.bind(["y", "x"])
    assert run.bind(("x", "y")) is not run.bind(("y", "x"))
    assert run.symbols in (("x", "y"), ("y", "x"))


#: constants beside an array: signed zeros, exponents numpy's power may
#: treat apart, and values that are not finite
OPERAND_CONSTANTS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -4 / 3, 1.3,
                     np.inf, -np.inf, np.nan)


@pytest.mark.parametrize("size", [1, 40, 41, 321])
def test_array_core_takes_its_constants_as_0d_operands(size):
    # a constant a step takes beside an array is bound as a 0-d array, and
    # on float64 arrays each operation gives run's bits with the constant
    # on either side; a step on constants alone and a constant output are
    # np.float64, as run computes them
    x = Sym("x")
    alone = Pow(Num(2.0), Num(0.5))
    exprs = [Num(2.5), alone, Neg(x), Call("exp", Mul(Num(0.5), x)),
             Mul(alone, x), Call("arctan", Num(-0.0))]
    for c in OPERAND_CONSTANTS:
        for node in (Add, Sub, Mul, Div, Pow):
            exprs += [node(x, Num(c)), node(Num(c), x)]
    run = compile_expressions(*exprs)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]
    if size == 1:
        points = [np.array([v]) for v in (*special, 1.5, -2.5)]
    else:
        xs = np.random.default_rng(size).uniform(-3.0, 3.0, size)
        xs[:len(special)] = special
        points = [xs]
    for xs in points:
        got = _core_bits_match_run(run, ("x",), [xs])
        assert all(type(got[i]) is np.float64 for i in (0, 1, 5))
        assert all(g.shape == (size,) for g in got[2:5] + got[6:])
    bound = [v for v in run.bind(("x",)).__globals__.values()
             if isinstance(v, np.ndarray)]
    assert bound and all(v.shape == () for v in bound)


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
    # one side finite everywhere, the other nowhere; and two constants
    with pytest.raises(NoAdmissibleSampleError):
        equivalent(parse("x"), parse("ln(-x)"), seed=0)
    with pytest.raises(NoAdmissibleSampleError):
        equivalent(parse("ln(-1)"), parse("ln(-1)"), seed=0)


def test_equivalent_compares_every_point_it_evaluates():
    # the two sides differ only on (2.95, 3), 2% of the x range: about 4
    # of a round's 200 points, which the first 50 often miss
    step = parse("x+(1+sign(x-2.95))/2")
    for seed in range(12):
        assert not equivalent(parse("x"), step, seed=seed)


def _reference_sample_finite(fn, symbols, seed, count, ranges=None):
    """The sampling loop with every round filtered and concatenated."""
    rng = np.random.default_rng(seed)
    kept_a, kept_b = [], []
    for _ in range(10):
        a, b = fn(finsym.expressions.sample_bindings(symbols, rng, count,
                                                     ranges))
        finite = np.isfinite(a) & np.isfinite(b)
        kept_a.append(a[finite])
        kept_b.append(b[finite])
        if sum(kept.size for kept in kept_a) >= count:
            break
    return np.concatenate(kept_a), np.concatenate(kept_b)


def _same_bits(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape
               and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_sample_finite_returns_an_all_finite_first_round_as_it_is():
    returned = []

    def finite(bindings):
        x, u = bindings["x"], bindings["u"]
        returned.append((x * u, -0.0 * x))
        return returned[-1]

    for seed in range(4):
        got = sample_finite(finite, ("u", "x"), seed, 9)
        assert got[0] is returned[-1][0] and got[1] is returned[-1][1]
        assert _same_bits(got, _reference_sample_finite(finite, ("u", "x"),
                                                        seed, 9))


def test_sample_finite_draws_at_most_ten_rounds():
    rounds = []

    def never_finite(bindings):
        rounds.append(bindings["x"].shape)
        return np.full(7, np.nan), np.zeros(7)

    a, b = sample_finite(never_finite, ("x",), 0, 7)
    assert rounds == [(7,)] * 10
    assert a.shape == b.shape == (0,)

    def finite_above_2(bindings):
        rounds.append(bindings["x"].shape)
        x = bindings["x"]
        return np.where(x > 2.0, x, np.inf), x

    rounds.clear()
    a, b = sample_finite(finite_above_2, ("x",), 0, 7)
    # rounds are drawn until 7 points are kept, and all kept are returned
    assert 1 < len(rounds) < 10
    assert a.size >= 7 and np.all(a > 2.0) and np.array_equal(a, b)
    assert _same_bits((a, b), _reference_sample_finite(finite_above_2, ("x",),
                                                       0, 7))

    def b_finite_above_2(bindings):
        x = bindings["x"]
        return x, np.log(x - 2.0, where=x > 2.0, out=np.full_like(x, -np.inf))

    # the first round's non-finite points, here in the second array only,
    # are dropped and more rounds drawn
    for seed in range(6):
        a, b = sample_finite(b_finite_above_2, ("x",), seed, 7)
        assert a.size >= 7 and np.all(a > 2.0) and np.all(np.isfinite(b))
        assert _same_bits((a, b), _reference_sample_finite(
            b_finite_above_2, ("x",), seed, 7))


def test_max_relative_is_the_relative_zero_test_of_the_pieces():
    x = parse("x")
    assert max_relative((x, neg(x)), 0, 50) == (0.0, 50)
    # no symbols: one round, broadcast to the count; |1| / (1 + |1|)
    assert max_relative((Num(1.0),), 0, 4) == (0.5, 4)
    worst, kept = max_relative((parse("ln(-x)"),), 0, 5)
    assert math.isnan(worst) and kept == 0
    # 2x against x: |x| / (1 + 3|x|) is largest at the top of (0.5, 3)
    worst, kept = max_relative((parse("2*x"), neg(x)), 0, 200)
    assert kept == 200 and 0.29 < worst < 3 / 10


@pytest.mark.parametrize("pieces", [("x/0", "-x/0"),
                                    ("1e308*(x/x)", "1e308*(x/x)")],
                         ids=["inf-inf", "overflow"])
def test_max_relative_drops_a_sum_that_is_not_finite_silently(pieces):
    # +inf + -inf is NaN and 1e308 + 1e308 overflows at every point: each
    # point is dropped, and numpy warns of neither
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        worst, kept = max_relative(tuple(map(parse, pieces)), 0, 5)
    assert math.isnan(worst) and kept == 0


def test_max_relative_keeps_the_bits_of_summing_into_new_arrays():
    def reference(terms, seed, count, ranges=None):
        pieces = compile_expressions(*terms)

        def total_and_scale(bindings):
            total, scale = np.zeros(count), np.ones(count)
            for v in pieces(bindings):
                total, scale = total + v, scale + np.abs(v)
            return total, scale

        total, scale = _reference_sample_finite(
            total_and_scale, pieces.symbols, seed, count, ranges)
        if total.size == 0:
            return math.nan, 0
        return float(np.max(np.abs(total) / scale)), total.size

    # a constant, a -0.0, and a piece that is not finite for x < 1.7
    terms = (Num(2.5), Num(-0.0), parse("ln(x-1.7)*u"), parse("-x*u/3"),
             parse("exp(-u)"))
    for seed in range(8):
        for pieces in (terms, terms[:2] + terms[3:]):
            got = max_relative(pieces, seed, 50)
            want = reference(pieces, seed, 50)
            assert got[1] == want[1] >= 50
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


def _broadcast_max_relative(terms, count):
    """The array path's arithmetic on pieces with no free symbol: each
    piece's value broadcast over ``count`` points and summed in place, and
    no point kept when a sum is not finite."""
    values = compile_expressions(*terms)({})
    with np.errstate(all="ignore"):
        total, scale = np.zeros(count), np.ones(count)
        for v in values:
            total += v
            scale += np.abs(v)
        if not (np.all(np.isfinite(total)) and np.all(np.isfinite(scale))):
            return math.nan, 0
        return float(np.max(np.abs(total) / scale)), count


SYMBOL_FREE_PIECES = {
    "zero": (Num(0.0),),
    "negative zero": (Num(-0.0),),
    "signed zeros": (Num(-0.0), Num(0.0), Num(-0.0)),
    "mixed signs": (Num(2.5), Num(-0.0), Num(-1.25), parse("-3/7")),
    "a rounding remainder": (Num(0.1), Num(0.2), Num(-0.3)),
    "an unfolded call": (parse("arctan(1/0)"), Num(-1.5)),
    "1/0": (Num(1.0), parse("1/0")),
    "0/0": (parse("0/0"), Num(2.0)),
    "inf-inf": (parse("1/0"), parse("-1/0")),
    "an overflowing sum": (Num(1e308), Num(1e308)),
    "an overflowing scale": (Num(1e308), Num(-1e308), Num(1e308),
                             Num(-1e308)),
}


@pytest.mark.parametrize("count", [1, 50, 200])
@pytest.mark.parametrize("name", SYMBOL_FREE_PIECES)
def test_max_relative_reads_symbol_free_pieces_once(name, count, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("symbol-free pieces were sampled")

    monkeypatch.setattr(finsym.expressions, "sample_finite", no_sampling)
    terms = SYMBOL_FREE_PIECES[name]
    worst, kept = max_relative(terms, 0, count)
    want = _broadcast_max_relative(terms, count)
    assert type(worst) is float and kept == want[1]
    assert np.float64(worst).tobytes() == np.float64(want[0]).tobytes()
    assert kept == (count if math.isfinite(worst) else 0)


@pytest.mark.parametrize("count", [0, -3])
def test_max_relative_on_symbol_free_pieces_refuses_a_count_below_one(count):
    with pytest.raises(ExpressionError,
                       match=f"need at least one sample, got {count}"):
        max_relative((Num(1.0),), 0, count)


def test_equivalent_runs_the_relative_kernel(monkeypatch):
    calls = []

    def counting(terms, *args):
        calls.append(terms)
        return max_relative(terms, *args)

    monkeypatch.setattr(finsym.expressions, "max_relative", counting)
    a, b = parse("x^2+1"), parse("(x+1)^2-2*x")
    assert equivalent(a, b, seed=9)
    assert calls == [(a, neg(b))]


def test_unknown_functions_are_refused():
    with pytest.raises(ExpressionError, match="unknown function 'sin'"):
        call("sin", sym("x"))
    # a raw node, built past the smart constructor
    with pytest.raises(ExpressionError, match="unknown function 'sin'"):
        compile_expressions(Call("sin", sym("x")))


@pytest.mark.parametrize("walk", [
    to_string, lambda e: differentiate(e, "x"), lambda e: substitute(e, {}),
    compile_expressions,
], ids=["to_string", "differentiate", "substitute", "compile_expressions"])
def test_walks_refuse_a_non_expression(walk):
    with pytest.raises(TypeError, match="not an expression: 3"):
        walk(3)


def test_deep_input_raises_recursion_error():
    # a sum parses as a left-deep chain; the walks recurse once a level
    deep = parse("+".join(f"x^{i}" for i in range(1, 1200)))
    with pytest.raises(RecursionError):
        differentiate(deep, "x")


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


def _reference_coerce(e):
    return e if isinstance(e, finsym.expressions.Expression) else Num(float(e))


def _reference_const(e, v):
    return isinstance(e, Num) and e.value == v


def _reference_fold(value):
    return Num(float(value)) if math.isfinite(value) else None


def _reference_add(a, b):
    a, b = _reference_coerce(a), _reference_coerce(b)
    if isinstance(a, Num) and isinstance(b, Num):
        folded = _reference_fold(a.value + b.value)
        if folded is not None:
            return folded
    if _reference_const(a, 0.0):
        return b
    if _reference_const(b, 0.0):
        return a
    return Add(a, b)


def _reference_sub(a, b):
    a, b = _reference_coerce(a), _reference_coerce(b)
    if isinstance(a, Num) and isinstance(b, Num):
        folded = _reference_fold(a.value - b.value)
        if folded is not None:
            return folded
    if _reference_const(b, 0.0):
        return a
    if _reference_const(a, 0.0):
        return _reference_neg(b)
    return Sub(a, b)


def _reference_mul(a, b):
    a, b = _reference_coerce(a), _reference_coerce(b)
    if isinstance(a, Num) and isinstance(b, Num):
        folded = _reference_fold(a.value * b.value)
        if folded is not None:
            return folded
    if _reference_const(a, 0.0) or _reference_const(b, 0.0):
        return Num(0.0)
    if _reference_const(a, 1.0):
        return b
    if _reference_const(b, 1.0):
        return a
    if _reference_const(a, -1.0):
        return _reference_neg(b)
    if _reference_const(b, -1.0):
        return _reference_neg(a)
    return Mul(a, b)


def _reference_neg(a):
    a = _reference_coerce(a)
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


#: nodes and plain numbers; a Num holding an int prints apart from 1.0
CONSTRUCTOR_OPERANDS = [
    Num(0.0), Num(-0.0), Num(1), Num(1.0), Num(-1.0), Num(2.5), Num(math.inf),
    Num(-math.inf), Num(math.nan), sym("x"), Neg(sym("x")),
    0, 1, -1, 3, 0.0, -0.0, 1.0, -1.0, 2.5, math.inf, math.nan,
    np.float64(-0.0),
]


@pytest.mark.parametrize("build,reference", [
    (add, _reference_add), (sub, _reference_sub), (mul, _reference_mul),
], ids=["add", "sub", "mul"])
def test_smart_constructors_build_the_reference_trees(build, reference):
    # repr, not ==: Num(0.0) == Num(-0.0), and Num(nan) != itself
    for a in CONSTRUCTOR_OPERANDS:
        for b in CONSTRUCTOR_OPERANDS:
            assert repr(build(a, b)) == repr(reference(a, b)), (a, b)


def test_neg_builds_the_reference_trees():
    for a in CONSTRUCTOR_OPERANDS:
        assert repr(neg(a)) == repr(_reference_neg(a)), a
    assert repr(neg(2.0)) == "Num(-2.0)" and repr(neg(0)) == "Num(-0.0)"
    # 0*inf is NaN, so the fold falls through to the zero identity
    assert repr(mul(Num(0), Num(math.inf))) == "Num(0.0)"


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


@pytest.mark.parametrize("count", [0, -3])
def test_sample_bindings_refuses_a_count_below_one(count):
    rng = np.random.default_rng(0)
    with pytest.raises(ExpressionError,
                       match=f"need at least one sample, got {count}"):
        finsym.expressions.sample_bindings(("x",), rng, count)


@pytest.mark.parametrize("bad", [(2, 1), (1, 1), (math.nan, 1), (0, math.inf),
                                 (-math.inf, 0)])
def test_equivalent_refuses_a_range_that_is_not_finite_with_lo_below_hi(bad):
    with pytest.raises(ExpressionError,
                       match=r"sampling range of x must be finite with lo < hi"):
        equivalent(parse("x"), parse("x"), ranges={"x": bad})


def test_a_range_that_is_not_drawn_from_is_not_checked():
    assert equivalent(parse("x"), parse("x"), ranges={"u": (2, 1)})


def test_median_is_numpys_to_the_bit():
    # sizes 1-60, ties, signed zeros and infinities: the median of one sort
    # gives np.median's bits, +0.0 for a middle -0.0 and NaN for inf - inf
    rng = np.random.default_rng(30)
    for n in range(1, 61):
        vectors = [rng.normal(size=n), np.full(n, -0.0),
                   rng.choice([-1.0, -0.0, 0.0, 1.0], n),
                   rng.choice([-np.inf, -2.5, -0.0, 0.0, 2.5, np.inf], n)]
        for v in vectors:
            with np.errstate(invalid="ignore"):
                want = np.median(v)
            got = finsym.expressions._median(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), v
