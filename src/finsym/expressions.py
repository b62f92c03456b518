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
from typing import Mapping, Sequence, Union

__all__ = [
    "Expression", "Num", "Sym", "Neg", "Call", "Add", "Sub", "Mul", "Div", "Pow",
    "num", "sym", "add", "sub", "mul", "div", "pow_", "neg", "call",
    "ZERO", "ONE", "FUNCTIONS", "DEFAULT_SAMPLING_RANGES",
    "parse", "to_string", "differentiate", "evaluate", "compile_expressions",
    "substitute", "equivalent",
    "sample_bindings", "sample_finite", "max_relative",
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
    """Immutable expression tree node.  All operations are pure.

    A node is a value: it equals a node of its own class whose fields are
    equal, hashes as the tuple of its fields, and refuses assignment.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # unpickling calls the class, not setattr
        return self.__class__, self._fields()

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


# Each node class writes its fields in ``__init__`` through the setters of
# its slots, which skip the class's refusing ``__setattr__``.


class Num(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set_value(self, value)

    def _fields(self):
        return (self.value,)

    def __repr__(self):
        return f"Num({self.value!r})"


class Sym(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)

    def _fields(self):
        return (self.name,)

    def __repr__(self):
        return f"Sym({self.name!r})"


class Neg(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg: Expression):
        _set_neg_arg(self, arg)

    def _fields(self):
        return (self.arg,)

    def __repr__(self):
        return f"Neg(arg={self.arg!r})"

    def children(self):
        return (self.arg,)


class Call(Expression):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expression):
        _set_fn(self, fn)
        _set_call_arg(self, arg)

    def _fields(self):
        return (self.fn, self.arg)

    def __repr__(self):
        return f"Call(fn={self.fn!r}, arg={self.arg!r})"

    def children(self):
        return (self.arg,)


class _Binary(Expression):
    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        _set_left(self, left)
        _set_right(self, right)

    def _fields(self):
        return (self.left, self.right)

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(left={self.left!r}, "
                f"right={self.right!r})")

    def children(self):
        return (self.left, self.right)


_set_value, _set_name = Num.value.__set__, Sym.name.__set__
_set_neg_arg, _set_fn, _set_call_arg = (
    Neg.arg.__set__, Call.fn.__set__, Call.arg.__set__)
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Binary):
    __slots__ = ()


# ---------------------------------------------------------------------------
# smart constructors: constant folding + identity elimination.  ``add``,
# ``sub``, ``mul`` and ``neg`` build most nodes, so they test their
# operands' node types inline rather than through ``_coerce``/``_is_const``.


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
    if not isinstance(a, Expression):
        a = Num(float(a))
    if not isinstance(b, Expression):
        b = Num(float(b))
    const_a, const_b = type(a) is Num, type(b) is Num
    if const_a and const_b:
        value = a.value + b.value
        if math.isfinite(value):
            return Num(float(value))
    if const_a and a.value == 0.0:
        return b
    if const_b and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a, b) -> Expression:
    if not isinstance(a, Expression):
        a = Num(float(a))
    if not isinstance(b, Expression):
        b = Num(float(b))
    const_a, const_b = type(a) is Num, type(b) is Num
    if const_a and const_b:
        value = a.value - b.value
        if math.isfinite(value):
            return Num(float(value))
    if const_b and b.value == 0.0:
        return a
    if const_a and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a, b) -> Expression:
    if not isinstance(a, Expression):
        a = Num(float(a))
    if not isinstance(b, Expression):
        b = Num(float(b))
    const_a, const_b = type(a) is Num, type(b) is Num
    if const_a and const_b:
        value = a.value * b.value
        if math.isfinite(value):
            return Num(float(value))
    if const_a and a.value == 0.0 or const_b and b.value == 0.0:
        return ZERO
    if const_a and a.value == 1.0:
        return b
    if const_b and b.value == 1.0:
        return a
    if const_a and a.value == -1.0:
        return neg(b)
    if const_b and b.value == -1.0:
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
    kind = type(a)
    if kind is Num:
        return Num(-a.value)
    if kind is Neg:
        return a.arg
    if isinstance(a, Expression):
        return Neg(a)
    return Num(-float(a))


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
        # by node type, the kinds most often met first
        kind = type(e)
        if kind is Num:
            return ZERO
        if kind is Sym:
            if e.name == var:
                return ONE
            if var in deps.get(e.name, ()):
                return sym(_derivative_name(e.name, var))
            return ZERO
        if kind is Mul:
            return add(mul(d(e.left), e.right), mul(e.left, d(e.right)))
        if kind is Pow:
            base, expo = e.left, e.right
            dbase, dexpo = d(base), d(expo)
            if _is_const(dexpo, 0.0):
                return mul(mul(expo, pow_(base, sub(expo, ONE))), dbase)
            # general rule, needs ln of the base
            return mul(e, add(mul(dexpo, call("ln", base)),
                              div(mul(expo, dbase), base)))
        if kind is Add:
            return add(d(e.left), d(e.right))
        if kind is Call:
            inner = d(e.arg)
            if e.fn == "exp":
                return mul(e, inner)
            if e.fn == "ln":
                return ZERO if _is_const(inner, 0.0) else div(inner, e.arg)
            if e.fn == "abs":
                return mul(call("sign", e.arg), inner)
            if e.fn == "arctan":
                return div(inner, add(ONE, pow_(e.arg, 2)))
            if e.fn == "sign":
                return ZERO  # derivative away from 0; 0 by convention
        if kind is Neg:
            return neg(d(e.arg))
        if kind is Div:
            dleft, dright = d(e.left), d(e.right)
            if _is_const(dleft, 0.0) and _is_const(dright, 0.0):
                return ZERO  # a constant quotient, 1/0 included
            return div(sub(mul(dleft, e.right), mul(e.left, dright)),
                       pow_(e.right, 2))
        if kind is Sub:
            return sub(d(e.left), d(e.right))
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
#: a float64's eight bytes, the tape's key of a constant
_pack_double = struct.Struct("<d").pack
#: the same operations as the generated core writes them: ``a + b`` calls
#: what ``operator.add(a, b)`` calls, without the call
_SOURCE = {
    operator.add: "{} + {}", operator.sub: "{} - {}", operator.mul: "{} * {}",
    operator.truediv: "{} / {}", operator.pow: "{} ** {}",
    operator.neg: "-{}",
}


def _straight_line(steps: list, constants: list, registers: list,
                   params: dict, arity: int, floats: bool = False):
    """A tape's steps as one generated function of ``arity`` parameters.

    ``params`` maps the register of each symbol to its parameter's index.
    The source has one assignment per step, in tape order, with registers
    as locals ``r<i>`` and parameters ``a0..aN``.  Constants and ufuncs
    reach the function through its globals, so their bits and no symbol
    name ever enter the source.  It returns the list of the output
    registers, as the interpreted steps of ``run`` compute them.

    The array form binds a constant that a step applies to a parameter's
    value, or to a register computed from one, as a 0-d array.  A step
    on constants alone, and a constant output, get the ``np.float64``, so
    they compute and return what ``run`` does.

    The ``floats`` form runs on Python floats: constants are bound as
    floats, ``**`` is ``math.pow``, ``abs`` is ``math.fabs`` and each other
    ufunc result passes through ``float()``.  ``math.pow`` calls libm's
    pow, as numpy's power does, and raises ``ValueError`` or
    ``OverflowError`` wherever numpy's power is NaN or inf from finite
    operands (a negative base to a fraction, 0 to a negative power,
    overflow), so every register holds a float.  The form returns floats,
    or raises where Python raises on what numpy carries to inf or NaN.
    """
    import numpy as np

    namespace: dict = {"__builtins__": {}}

    def name(r: int, zero_d: bool = False) -> str:
        if r in params:
            return f"a{params[r]}"
        value = constants[r]
        if value is None:
            return f"r{r}"
        if zero_d:
            namespace[f"z{r}"] = np.array(value)
            return f"z{r}"
        namespace[f"c{r}"] = float(value) if floats else value
        return f"c{r}"

    source = _SOURCE
    if floats:
        namespace.update(float=float, fabs=math.fabs, pow=math.pow)
        source = {**_SOURCE, operator.pow: "pow({}, {})"}
    ufuncs: dict = {}  # ufunc -> the name of its global
    # the registers of constants and of steps on constants alone
    folded = {r for r, value in enumerate(constants) if value is not None}
    lines = [f"def core({', '.join(f'a{i}' for i in range(arity))}):"]
    for out, op, a, b in steps:
        operands = (a,) if b is None else (a, b)
        on_constants = folded.issuperset(operands)
        if on_constants:
            folded.add(out)
        names = [name(r, not (floats or on_constants)) for r in operands]
        form = source.get(op)
        if form is not None:
            value = form.format(*names)
        elif floats and op is np.absolute:
            value = f"fabs({names[0]})"
        else:
            fn = ufuncs.setdefault(op, f"f{len(ufuncs)}")
            namespace[fn] = op
            value = f"{fn}({names[0]})"
            if floats:
                value = f"float({value})"
        lines.append(f"    r{out} = {value}")
    lines.append(f"    return [{', '.join(map(name, registers))}]")
    exec(compile("\n".join(lines), "<tape>", "exec"), namespace)
    return namespace["core"]


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

    ``run.symbols`` names the tape's free symbols, the names ``run`` must
    be given.  ``run`` interprets the steps, which suits a tape called
    once or a few times.  A loop that calls a tape many times calls its
    positional core, ``core = run.bind(order)``: the steps generated once
    as straight-line Python, one assignment per step, which skips the
    step loop, the checks and the copies of ``run``.  Generating costs
    several interpreted calls, so ``bind`` keeps the core of each order it
    is given and returns it again for the same order.  ``bind`` raises
    :class:`UnboundSymbolError` at once when ``order`` misses a free
    symbol of the tape; names the tape does not use are accepted and
    ignored.  ``core(*values)`` takes one value per name of ``order``, in
    that order, and its contract is narrower:

    - the values are float64 arrays of one shape;
    - the caller holds ``np.errstate(all="ignore")``, as ``run`` does;
    - it returns a list of the output registers as computed: a constant
      is an ``np.float64``, not broadcast, and an output may be a bound
      array, another output or the same object on every call, so it must
      not be written.

    The core and ``run`` apply the same operations to the same registers
    in the same order, so the two give the same bits.  The core takes a
    constant that a step applies to an array as a 0-d array, which a
    ufunc takes in fewer cycles than an ``np.float64`` scalar, with the
    same bits on float64 arrays; a step on constants alone keeps the
    ``np.float64`` values ``run`` gives it.  On ``np.float64`` scalars a
    ``**`` with a 0-d operand can differ from numpy's scalar power in the
    last bit, so scalars go through ``run`` or the scalar form.

    ``run.bind(order, floats=True)`` gives the scalar form, kept apart
    from the array core of the same order: Python floats in, Python
    floats out, and it pays none of numpy's cost per scalar operation.
    Where numpy gives inf or NaN it may raise instead (``x / 0`` raises
    ``ZeroDivisionError``, a negative base to a fraction ``ValueError``,
    an overflowing ``**`` ``OverflowError``); after any
    ``ArithmeticError`` or ``ValueError`` the caller computes that call
    again with ``run``, on the same values as ``np.float64``, which is
    then the only one to give numpy's values.  A call that returns gives
    ``run``'s bits, but for the sign of a NaN: numpy's scalar
    ``nan + -nan`` is ``-nan`` where Python's is ``nan``.  The caller
    still holds the errstate, for the ufuncs.
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
        kind = type(e)
        op = _OPS.get(kind)
        if op is not None and kind is not Neg:  # a binary node
            key = (op, register(e.left), register(e.right))
        elif kind is Num:
            # bits, not the float: Num(0.0) and Num(-0.0) compare equal
            key = (Num, _pack_double(e.value))
        elif kind is Sym:
            key = (Sym, e.name)
        elif kind is Neg:
            key = (op, register(e.arg), None)
        elif kind is Call:  # by its function's ufunc
            if e.fn not in _UFUNCS:
                raise ExpressionError(f"unknown function {e.fn!r}")
            key = (getattr(np, _UFUNCS[e.fn]), register(e.arg), None)
        else:
            raise TypeError(f"not an expression: {e!r}")
        r = numbered.get(key)
        if r is None:
            r = numbered[key] = len(constants)
            if kind is Num:
                constants.append(np.float64(e.value))
            else:
                constants.append(None)
                if kind is Sym:
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

    cores: dict = {}  # (order, floats) -> its generated core

    def bind(order: Sequence[str], floats: bool = False):
        key = (tuple(order), floats)
        core = cores.get(key)
        if core is None:
            index = dict(zip(key[0], range(len(key[0]))))
            if not index.keys() >= symbols.keys():
                unbound = next(name for name in symbols if name not in index)
                raise UnboundSymbolError(f"unbound symbol {unbound!r}")
            core = cores[key] = _straight_line(
                steps, constants, registers,
                {r: index[name] for name, r in symbols.items()}, len(index),
                floats)
        return core

    def run(bindings: Mapping[str, object]) -> tuple:
        values = {k: np.asarray(v, dtype=np.float64)
                  if isinstance(v, np.ndarray) else np.float64(v)
                  for k, v in bindings.items()}
        shape = ()  # of all the bindings broadcast together
        for v in values.values():
            if v.shape and v.shape != shape:  # a scalar never widens it
                shape = (np.broadcast_shapes(shape, v.shape) if shape
                         else v.shape)
        regs = constants.copy()
        try:
            for name, r in symbols.items():
                regs[r] = values[name]
        except KeyError as unbound:
            raise UnboundSymbolError(
                f"unbound symbol {unbound.args[0]!r}") from None
        with np.errstate(all="ignore"):
            for out, op, a, b in steps:
                regs[out] = op(regs[a]) if b is None else op(regs[a], regs[b])
        results = []
        for r, fresh in zip(registers, outputs):
            v = regs[r]
            if v.shape != shape:
                v = np.full(shape, v)
            elif not fresh and isinstance(v, np.ndarray):
                v = v.copy()
            results.append(v)
        return tuple(results)

    run.bind = bind
    run.symbols = tuple(symbols)
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


def _median(values) -> float:
    """``np.median`` of a non-empty NaN-free float64 vector, to the bit, by
    one sort: numpy sums the one or two middle values from +0.0.  Python
    floats do the sum, so inf - inf is NaN without a warning."""
    import numpy as np

    r = np.sort(values)
    k = r.size // 2
    if r.size % 2:
        return 0.0 + float(r[k])
    return (0.0 + float(r[k - 1]) + float(r[k])) / 2.0


def _check_count(count: int):
    if count < 1:
        raise ExpressionError(f"need at least one sample, got {count}")


def sample_bindings(symbols, rng, count: int, ranges=None):
    """Draw ``count`` points for each symbol as arrays (seeded, uniform).

    Raises :class:`ExpressionError` for a count below 1, or for a range
    drawn from that is not finite with lo < hi.
    """
    _check_count(count)
    resolved = sorted(_resolve_ranges(symbols, ranges).items())
    for s, (lo, hi) in resolved:
        if not -math.inf < lo < hi < math.inf:
            raise ExpressionError(f"the sampling range of {s} must be finite "
                                  f"with lo < hi, got ({lo}, {hi})")
    return {s: rng.uniform(lo, hi, size=count) for s, (lo, hi) in resolved}


def sample_finite(fn, symbols, seed: int, count: int, ranges=None):
    """Seeded sampling policy of every randomized zero test.

    Draws rounds of ``count`` points, at most ten, from
    ``default_rng(seed)`` with :func:`sample_bindings`, and calls ``fn`` on
    each round's bindings; ``fn`` returns two arrays of shape ``(count,)``.
    Keeps, in draw order, the points where both are finite, and stops
    after the round that brings the points kept to ``count``.  Returns the
    two arrays at the kept points, empty when no point was finite: the
    first round's own arrays when all of its points are finite.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    kept_a, kept_b, kept = [], [], 0
    for _ in range(10):
        a, b = fn(sample_bindings(symbols, rng, count, ranges))
        finite = np.isfinite(a)
        finite &= np.isfinite(b)
        n = np.count_nonzero(finite)
        if n == a.size and not kept_a:
            return a, b  # the first round kept every point
        kept_a.append(a[finite])
        kept_b.append(b[finite])
        kept += n
        if kept >= count:
            break
    return np.concatenate(kept_a), np.concatenate(kept_b)


def max_relative(terms, seed: int, count: int, ranges=None):
    """The relative zero test of a sum of pieces: the largest
    ``|sum of pieces| / (1 + sum |pieces|)`` over the points
    :func:`sample_finite` keeps, and how many it kept (NaN and 0 for none).

    Pieces with no free symbol cannot vary, so they are evaluated once and
    sampled nowhere: the sums run in the pieces' order from 0 and 1, as
    over an array, and the result is that value with ``count`` points
    kept, or NaN and 0 when either sum is not finite.  A count below 1
    raises :class:`ExpressionError` on both paths.
    """
    import numpy as np

    pieces = compile_expressions(*terms)
    if not pieces.symbols:
        _check_count(count)
        total, scale = 0.0, 1.0
        for v in pieces({}):
            v = float(v)
            total += v
            scale += abs(v)
        if math.isfinite(total) and math.isfinite(scale):
            return abs(total) / scale, count
        return math.nan, 0

    def total_and_scale(bindings):
        total, scale = np.zeros(count), np.ones(count)
        for v in pieces(bindings):
            total += v
            scale += np.abs(v)
        return total, scale

    # pieces of opposite infinities, or a sum past the float range, make a
    # point that is dropped, not a warning
    with np.errstate(all="ignore"):
        total, scale = sample_finite(total_and_scale, pieces.symbols, seed,
                                     count, ranges)
    if total.size == 0:
        return math.nan, 0
    return float(np.maximum.reduce(np.abs(total) / scale)), total.size


def equivalent(a: Expression, b: Expression, seed: int = 0,
               tol: float = 1e-9, ranges=None) -> bool:
    """Seeded randomized equality test: ``|a-b| / (1+|a|+|b|) <= tol`` at
    every point :func:`max_relative` keeps on the pieces ``(a, -b)`` in
    rounds of 200; :class:`NoAdmissibleSampleError` when it keeps none.
    """
    worst, kept = max_relative((a, neg(b)), seed, 200, ranges)
    if not kept:
        raise NoAdmissibleSampleError(
            "no admissible sample: all trials hit non-finite values")
    return worst <= tol
