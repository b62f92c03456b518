"""Symbolic scalar expressions: parsing, calculus, evaluation, zero-testing.

Everything downstream (equation specs, symmetry residuals, reductions,
conservation laws) is built on these trees.  The engine is deliberately
small: constant folding and identity elimination only, no canonical forms.
Equality of expressions is decided by seeded randomized sampling, not by
structural normalization.  Trees, parsing, printing and calculus need only
``math``; numpy is imported by the code that evaluates (the tape,
sampling, the folding of a literal call) when it first runs.
"""
from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

__all__ = [
    "Expression", "Num", "Sym", "Neg", "Call", "Add", "Sub", "Mul", "Div", "Pow",
    "num", "sym", "add", "sub", "mul", "div", "pow_", "neg", "call",
    "ZERO", "ONE", "FUNCTIONS", "DEFAULT_SAMPLING_RANGES",
    "parse", "to_string", "differentiate", "evaluate", "compile_expressions",
    "substitute", "equivalent",
    "sample_bindings", "sample_finite",
    "ExpressionError", "ParseError", "UnknownFunctionError",
    "UnboundSymbolError", "NoAdmissibleSampleError",
]

#: the numpy ufunc that evaluates each function, by its attribute name
_UFUNCS = {"exp": "exp", "ln": "log", "abs": "abs", "arctan": "arctan",
           "sign": "sign"}
FUNCTIONS = tuple(_UFUNCS)

#: ranges used when sampling unpinned symbols; chosen to dodge the
#: singular sets x = 0, u = 0 of the coefficient families.
DEFAULT_SAMPLING_RANGES = {"t": (0.1, 2.0), "x": (0.5, 3.0), "u": (0.5, 3.0)}
_FALLBACK_RANGE = (0.5, 3.0)
#: points at which :func:`equivalent` compares the two sides
_TRIALS = 50


class ExpressionError(Exception):
    """Base class for expression-engine failures."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    pass


class UnboundSymbolError(ExpressionError):
    pass


class NoAdmissibleSampleError(ExpressionError):
    """Raised when every sampled point evaluated to a non-finite value."""


# ---------------------------------------------------------------------------
# nodes


class Expression:
    """Immutable expression tree node.  All operations are pure."""

    __slots__ = ()

    def __str__(self):
        return to_string(self)

    def children(self) -> tuple:
        return ()

    def free_symbols(self) -> frozenset:
        out = set()
        stack = [self]
        while stack:
            e = stack.pop()
            if isinstance(e, Sym):
                out.add(e.name)
            else:
                stack.extend(e.children())
        return frozenset(out)


@dataclass(frozen=True)
class Num(Expression):
    value: float

    def __repr__(self):
        return f"Num({self.value!r})"


@dataclass(frozen=True)
class Sym(Expression):
    name: str

    def __repr__(self):
        return f"Sym({self.name!r})"


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression

    def children(self):
        return (self.arg,)


@dataclass(frozen=True)
class Call(Expression):
    fn: str
    arg: Expression

    def children(self):
        return (self.arg,)


@dataclass(frozen=True)
class _Binary(Expression):
    left: Expression
    right: Expression

    def children(self):
        return (self.left, self.right)


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


class Pow(_Binary):
    pass


# ---------------------------------------------------------------------------
# smart constructors: constant folding + identity elimination


def num(v) -> Num:
    return Num(float(v))


def sym(name: str) -> Sym:
    return Sym(name)


ZERO = Num(0.0)
ONE = Num(1.0)


def _coerce(e) -> Expression:
    if isinstance(e, Expression):
        return e
    return Num(float(e))


def _is_const(e: Expression, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _fold(value: float) -> Num | None:
    return Num(float(value)) if math.isfinite(value) else None


def add(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Num) and isinstance(b, Num):
        folded = _fold(a.value + b.value)
        if folded is not None:
            return folded
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Num) and isinstance(b, Num):
        folded = _fold(a.value - b.value)
        if folded is not None:
            return folded
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Num) and isinstance(b, Num):
        folded = _fold(a.value * b.value)
        if folded is not None:
            return folded
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return Mul(a, b)


def div(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        folded = _fold(a.value / b.value)
        if folded is not None:
            return folded
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    return Div(a, b)


def pow_(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Num) and isinstance(b, Num):
        # libm's pow, as numpy's float64 power; where math.pow raises (0^-1,
        # a negative base to a fraction, overflow) numpy's is not finite
        try:
            folded = _fold(math.pow(a.value, b.value))
        except (ValueError, OverflowError, ZeroDivisionError):
            folded = None
        if folded is not None:
            return folded
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return ONE
    return Pow(a, b)


def neg(a) -> Expression:
    a = _coerce(a)
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def call(fn: str, a) -> Expression:
    if fn not in FUNCTIONS:
        raise ExpressionError(f"unknown function {fn!r}")
    a = _coerce(a)
    if isinstance(a, Num):
        # numpy's ufunc, not math's: their last bits differ
        import numpy as np
        with np.errstate(all="ignore"):
            v = getattr(np, _UFUNCS[fn])(np.float64(a.value))
        folded = _fold(float(v))
        if folded is not None:
            return folded
    return Call(fn, a)


# ---------------------------------------------------------------------------
# printing


#: infix node kinds: symbol, precedence, and the precedence at which the
#: left and the right operand print without parentheses.  ``to_string``
#: prints and ``_Parser`` parses by this one table.  ``^`` is
#: right-associative, and a unary minus prints bare in its exponent.
_INFIX = {Add: ("+", 1, 1, 2), Sub: ("-", 1, 1, 2), Mul: ("*", 2, 2, 3),
          Div: ("/", 2, 2, 3), Pow: ("^", 4, 5, 3)}
_UNARY = 3  #: the precedence of a leading minus sign
#: the node kind of each infix symbol, for the parser
_SYMBOLS = {infix[0]: node for node, infix in _INFIX.items()}
#: the smart constructor that rebuilds each node kind from new operands
_BUILD = {Neg: neg, Add: add, Sub: sub, Mul: mul, Div: div, Pow: pow_}


def _prec(e: Expression) -> int:
    infix = _INFIX.get(type(e))
    if infix is not None:
        return infix[1]
    if isinstance(e, Neg) or (isinstance(e, Num) and e.value < 0):
        return _UNARY  # prints with a leading minus sign
    return 9


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expression) -> str:
    """Render with minimal parentheses; re-parsing yields the same tree."""
    infix = _INFIX.get(type(e))
    if infix is not None:
        symbol, _, left, right = infix
        return _wrap(e.left, left) + symbol + _wrap(e.right, right)
    if isinstance(e, Num):
        return _fmt_number(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _UNARY)
    raise TypeError(f"not an expression: {e!r}")


def _wrap(e: Expression, minimum: int) -> str:
    s = to_string(e)
    return "(" + s + ")" if _prec(e) < minimum else s


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[+\-*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Precedence climbing by the ``_INFIX`` table, a leading minus binding
    at ``_UNARY``: ``^`` > unary minus > ``* /`` > ``+ -``; ``^`` is
    right-associative, its right operand parsing below its own precedence."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op_char: str):
        kind, value, offset = self.take()
        if kind != "op" or value != op_char:
            raise ParseError(f"expected {op_char!r}", offset)

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {value!r}", offset)
        return e

    def expr(self, minimum: int = 1) -> Expression:
        """An operand, then each infix operator of precedence >= minimum."""
        if self.peek()[1] == "-":  # only an operator token reads "-"
            self.take()
            e = neg(self.expr(_UNARY))
        else:
            e = self.atom()
        while True:
            node = _SYMBOLS.get(self.peek()[1])
            if node is None or _INFIX[node][1] < minimum:
                return e
            self.take()
            e = _BUILD[node](e, self.expr(_INFIX[node][3]))

    def atom(self) -> Expression:
        kind, value, offset = self.take()
        if kind == "num":
            if float(value) == math.inf:  # the tree could not be printed
                raise ParseError(f"number {value} overflows", offset)
            return num(float(value))
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function {value!r}", offset)
                self.take()
                inner = self.expr()
                self.expect_op(")")
                return call(value, inner)
            if value in FUNCTIONS:
                raise ParseError(f"expected '(' after function {value!r}",
                                 offset)
            return sym(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(text: str) -> Expression:
    """Parse ``text`` under the standard infix grammar.

    Identifiers are symbols; ``eps`` and ``epsp`` are the conventional
    spellings of the sign parameters.  Raises :class:`ParseError` with the
    byte offset of the failure.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# differentiation


def _derivative_name(name: str, var: str) -> str:
    if "_" in name:
        base, suffix = name.rsplit("_", 1)
        return f"{base}_{''.join(sorted(suffix + var))}"
    return f"{name}_{var}"


def differentiate(e: Expression, var: str,
                  deps: Mapping[str, Sequence[str]] | None = None) -> Expression:
    """Derivative of ``e`` with respect to symbol ``var``.

    Symbols other than ``var`` are constants unless listed in ``deps``;
    a dependent symbol contributes a chain-rule term through a fresh
    derivative symbol (``u`` differentiated in ``x`` introduces ``u_x``).
    """
    deps = deps or {}

    def d(e: Expression) -> Expression:
        if isinstance(e, Num):
            return ZERO
        if isinstance(e, Sym):
            if e.name == var:
                return ONE
            if var in deps.get(e.name, ()):
                return sym(_derivative_name(e.name, var))
            return ZERO
        if isinstance(e, Neg):
            return neg(d(e.arg))
        if isinstance(e, (Add, Sub)):  # linear in the operands
            return _BUILD[type(e)](d(e.left), d(e.right))
        if isinstance(e, Mul):
            return add(mul(d(e.left), e.right), mul(e.left, d(e.right)))
        if isinstance(e, Div):
            return div(sub(mul(d(e.left), e.right), mul(e.left, d(e.right))),
                       pow_(e.right, 2))
        if isinstance(e, Pow):
            base, expo = e.left, e.right
            dbase, dexpo = d(base), d(expo)
            if _is_const(dexpo, 0.0):
                return mul(mul(expo, pow_(base, sub(expo, ONE))), dbase)
            # general rule, needs ln of the base
            return mul(e, add(mul(dexpo, call("ln", base)),
                              div(mul(expo, dbase), base)))
        if isinstance(e, Call):
            inner = d(e.arg)
            if e.fn == "exp":
                return mul(e, inner)
            if e.fn == "ln":
                return div(inner, e.arg)
            if e.fn == "abs":
                return mul(call("sign", e.arg), inner)
            if e.fn == "arctan":
                return div(inner, add(ONE, pow_(e.arg, 2)))
            if e.fn == "sign":
                return ZERO  # derivative away from 0; 0 by convention
        raise TypeError(f"not an expression: {e!r}")

    return d(e)


# ---------------------------------------------------------------------------
# substitution


def substitute(e: Expression, mapping: Mapping[str, Union[Expression, float]]
               ) -> Expression:
    """Simultaneously replace symbols by expressions (or numbers)."""
    table = {k: _coerce(v) for k, v in mapping.items()}

    def walk(e: Expression) -> Expression:
        if isinstance(e, _Binary):
            return _BUILD[type(e)](walk(e.left), walk(e.right))
        if isinstance(e, Sym):
            return table.get(e.name, e)
        if isinstance(e, Num):
            return e
        if isinstance(e, Neg):
            return neg(walk(e.arg))
        if isinstance(e, Call):
            return call(e.fn, walk(e.arg))
        raise TypeError(f"not an expression: {e!r}")

    return walk(e)


# ---------------------------------------------------------------------------
# evaluation

#: the operation at each interior node but a call, by node type; a call
#: applies the ufunc of its function, from :data:`_UFUNCS`.  The tape of
#: :func:`compile_expressions` is the only code that applies them to arrays.
_OPS = {
    Neg: operator.neg, Add: operator.add, Sub: operator.sub,
    Mul: operator.mul, Div: operator.truediv, Pow: operator.pow,
}


def compile_expressions(*exprs: Expression):
    """Compile expressions into one tape: the package's one evaluator.

    Evaluation has IEEE double semantics: NaN and infinities propagate.
    The trees are walked once.  Every structurally equal subtree, within
    one expression or across several, gets one register and is computed
    once per call, as one step ``(out, op, a, b)`` of a flat tape.  The
    returned function takes bindings, scalars or numpy arrays, and returns
    a tuple with one float64 value per expression, each broadcast to the
    shape of all the bindings together; arrays returned are fresh and
    writable, never a bound array.  An unbound symbol raises
    :class:`UnboundSymbolError` when the function is called.

    Compile together the expressions evaluated at the same points, so the
    subtrees they share are computed once, and keep the function where
    the same expressions meet new bindings: compiling costs about as much
    as one call.

    A loop that calls a tape many times calls its positional core,
    ``core = run.bind(order)``, which skips the checks and the copies of
    ``run``.  ``bind`` raises :class:`UnboundSymbolError` at once when
    ``order`` misses a free symbol of the tape; names the tape does not
    use are accepted and ignored.  ``core(*values)`` takes one value per
    name of ``order``, in that order, and its contract is narrower:

    - the values are float64 arrays of one shape or ``np.float64``
      scalars (not Python floats: ``float / 0`` raises where numpy gives
      inf, and a negative float to a fractional power is complex);
    - the caller holds ``np.errstate(all="ignore")``, as ``run`` does;
    - it returns a list of the output registers as computed: a constant
      is not broadcast, and an output may be a bound array, another
      output or the same object on every call, so it must not be written.

    ``run`` binds the tape's own symbols and calls the same core, so the
    two give the same bits.
    """
    import numpy as np

    constants: list = []     # per register: its constant, or None
    symbols: dict = {}       # symbol name -> register
    steps: list = []         # (out, op, a, b); b is None for unary ops
    numbered: dict = {}      # structural key -> register
    walked: dict = {}        # id(node) -> register, so shared nodes walk once

    def register(e: Expression) -> int:
        r = walked.get(id(e))
        if r is not None:
            return r
        if isinstance(e, _Binary):
            key = (_OPS[type(e)], register(e.left), register(e.right))
        elif isinstance(e, Num):
            # bits, not the float: Num(0.0) and Num(-0.0) compare equal
            key = (Num, struct.pack("<d", e.value))
        elif isinstance(e, Sym):
            key = (Sym, e.name)
        else:  # a Neg, or a Call by its function's ufunc
            if isinstance(e, Call):
                if e.fn not in _UFUNCS:
                    raise ExpressionError(f"unknown function {e.fn!r}")
                op = getattr(np, _UFUNCS[e.fn])
            else:
                op = _OPS.get(type(e))
                if op is None:
                    raise TypeError(f"not an expression: {e!r}")
            key = (op, register(e.arg), None)
        r = numbered.get(key)
        if r is None:
            r = numbered[key] = len(constants)
            if isinstance(e, Num):
                constants.append(np.float64(e.value))
            else:
                constants.append(None)
                if isinstance(e, Sym):
                    symbols[e.name] = r
                else:
                    steps.append((r, *key))
        walked[id(e)] = r
        return r

    registers = [register(e) for e in exprs]
    del register  # it calls itself: free its tables now, not at a gc pass
    computed = {out for out, *_ in steps}
    outputs = []
    for r in registers:
        # an output array may be returned as it is only if a step made it,
        # and only once; bound arrays and repeats are copied
        outputs.append(r in computed)
        computed.discard(r)

    def positional(places: tuple):
        def core(*values):
            regs = constants.copy()
            for r, i in places:  # register r holds values[i]
                regs[r] = values[i]
            for out, op, a, b in steps:
                regs[out] = op(regs[a]) if b is None else op(regs[a], regs[b])
            return [regs[r] for r in registers]

        return core

    def bind(order: Sequence[str]):
        index = dict(zip(order, range(len(order))))
        if not index.keys() >= symbols.keys():
            unbound = next(name for name in symbols if name not in index)
            raise UnboundSymbolError(f"unbound symbol {unbound!r}")
        return positional(tuple((r, index[name])
                                for name, r in symbols.items()))

    # run's own order is the tape's symbols, so its core needs no checks
    names = tuple(symbols)
    core = positional(tuple(zip(symbols.values(), range(len(names)))))

    def run(bindings: Mapping[str, object]) -> tuple:
        values = {k: np.asarray(v, dtype=np.float64)
                  if isinstance(v, np.ndarray) else np.float64(v)
                  for k, v in bindings.items()}
        shape = ()  # of all the bindings broadcast together
        for v in values.values():
            if v.shape and v.shape != shape:  # a scalar never widens it
                shape = (np.broadcast_shapes(shape, v.shape) if shape
                         else v.shape)
        try:
            args = [values[name] for name in names]
        except KeyError as unbound:
            raise UnboundSymbolError(
                f"unbound symbol {unbound.args[0]!r}") from None
        with np.errstate(all="ignore"):
            regs = core(*args)
        results = []
        for v, fresh in zip(regs, outputs):
            if v.shape != shape:
                v = np.full(shape, v)
            elif not fresh and isinstance(v, np.ndarray):
                v = v.copy()
            results.append(v)
        return tuple(results)

    run.bind = bind
    return run


def evaluate(e: Expression, bindings: Mapping[str, object]):
    """The value of ``e`` at ``bindings``: its tape, compiled and run once.

    The contract is that of :func:`compile_expressions`: float64 of the
    bindings' broadcast shape, a fresh array, and
    :class:`UnboundSymbolError` for a free symbol left unbound.
    """
    (value,) = compile_expressions(e)(bindings)
    return value


# ---------------------------------------------------------------------------
# randomized equality


def _resolve_ranges(symbols, ranges=None):
    merged = dict(DEFAULT_SAMPLING_RANGES)
    if ranges:
        merged.update(ranges)
    return {s: merged.get(s, _FALLBACK_RANGE) for s in symbols}


def _close(a, b, tol):
    """``|a-b| <= tol*(1+|a|+|b|)``, on floats or elementwise on arrays."""
    return abs(a - b) <= tol * (1 + abs(a) + abs(b))


def sample_bindings(symbols, rng, count: int, ranges=None):
    """Draw ``count`` points for each symbol as arrays (seeded, uniform)."""
    resolved = _resolve_ranges(symbols, ranges)
    return {s: rng.uniform(lo, hi, size=count)
            for s, (lo, hi) in sorted(resolved.items())}


def sample_finite(fn, symbols, seed: int, count: int, need: int,
                  rounds: int, ranges=None):
    """Seeded sampling kernel of the randomized zero tests.

    Draws up to ``rounds`` rounds of ``count`` points from
    ``default_rng(seed)`` with :func:`sample_bindings`, and calls ``fn`` on
    each round's bindings; ``fn`` returns two arrays of shape ``(count,)``
    (two scalars, one point a round, when ``symbols`` is empty).
    Keeps, in draw order, the points where both are finite, and stops after
    the round that brings the points kept to ``need``.  Returns the two
    arrays at the kept points, empty when no point was finite.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    kept_a, kept_b = [], []
    for _ in range(rounds):
        a, b = fn(sample_bindings(symbols, rng, count, ranges))
        finite = np.isfinite(a) & np.isfinite(b)
        kept_a.append(a[finite])
        kept_b.append(b[finite])
        need -= int(np.count_nonzero(finite))
        if need <= 0:
            break
    return np.concatenate(kept_a), np.concatenate(kept_b)


def equivalent(a: Expression, b: Expression, seed: int = 0,
               tol: float = 1e-9, ranges=None) -> bool:
    """Randomized equality test: ``|a-b| <= tol*(1+|a|+|b|)`` at the first
    50 sampled points where both sides are finite.

    Sampling is seeded and reproducible.  Points where either side is
    non-finite are resampled a bounded number of times; if no admissible
    point is ever found, :class:`NoAdmissibleSampleError` is raised.
    """
    sides = compile_expressions(a, b)
    symbols = sorted(a.free_symbols() | b.free_symbols())
    va, vb = sample_finite(sides, symbols, seed, 4 * _TRIALS, need=_TRIALS,
                           rounds=10, ranges=ranges)
    if va.size == 0:
        raise NoAdmissibleSampleError(
            "no admissible sample: all trials hit non-finite values")
    return bool(_close(va[:_TRIALS], vb[:_TRIALS], tol).all())
