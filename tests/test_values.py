"""Expression nodes and records are immutable values.

Each class prints as ``Name(field=value, ...)``, equals only an instance
of its own class with equal fields, hashes as its field tuple, refuses
assignment, and survives a pickle round trip.
"""
import pickle

import numpy as np
import pytest

from finsym.classify import ClassificationResult
from finsym.equivalence import CoefficientRule, OutsideClassReport
from finsym.expressions import (
    Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym, parse,
)
from finsym.model import Solution, Spec, VectorField
from finsym.numeric import DirichletBC, Field, Grid, NoFluxBC
from finsym.reductions import OrderReduction, ReductionReport
from finsym.symmetry import JetResidual

X, ONE = Sym("x"), Num(1.0)

#: (class, its fields by name, the repr)
CASES = [
    (Num, {"value": 1.5}, "Num(1.5)"),
    (Sym, {"name": "x"}, "Sym('x')"),
    (Neg, {"arg": X}, "Neg(arg=Sym('x'))"),
    (Call, {"fn": "exp", "arg": X}, "Call(fn='exp', arg=Sym('x'))"),
    *[(kind, {"left": X, "right": ONE},
       f"{kind.__name__}(left=Sym('x'), right=Num(1.0))")
      for kind in (Add, Sub, Mul, Div, Pow)],
    (Spec, {"var": "u", "family": "power_u", "params": (2,)},
     "Spec(var='u', family='power_u', params=(2,))"),
    (VectorField, {"tau": ONE, "xi": Num(0.0), "eta": X},
     "VectorField(tau=Num(1.0), xi=Num(0.0), eta=Sym('x'))"),
    (Solution, {"expr": X, "parameters": ("C",), "domain": "x > 0"},
     "Solution(expr=Sym('x'), parameters=('C',), domain='x > 0')"),
    (ClassificationResult,
     {"case": 4, "params": {"n": 2.0}, "basis": (), "note": None},
     "ClassificationResult(case=4, params={'n': 2.0}, basis=(), note=None)"),
    (JetResidual, {"terms": (X, ONE)},
     "JetResidual(terms=(Sym('x'), Num(1.0)))"),
    (Grid, {"a": 0.0, "b": 1.0, "m": 9, "t_final": 0.5, "dt": 0.01},
     "Grid(a=0.0, b=1.0, m=9, t_final=0.5, dt=0.01)"),
    (DirichletBC, {"left": ONE, "right": X},
     "DirichletBC(left=Num(1.0), right=Sym('x'))"),
    (NoFluxBC, {}, "NoFluxBC()"),
    (Field, {"x": np.array([0.0, 1.0]), "times": np.array([0.0]),
             "values": np.array([[2.0, 3.0]])},
     "Field(x=array([0., 1.]), times=array([0.]), "
     "values=array([[2., 3.]]))"),
    (CoefficientRule, {"factor": ONE, "inner": X, "override": None},
     "CoefficientRule(factor=Num(1.0), inner=Sym('x'), override=None)"),
    (OutsideClassReport, {"label": "case8-out", "target": "t", "note": "n"},
     "OutsideClassReport(label='case8-out', target='t', note='n')"),
    (ReductionReport, {"label": "4.1", "passed": True, "deviation": 0.0,
                       "multiplier": 1.5, "note": None},
     "ReductionReport(label='4.1', passed=True, deviation=0.0, "
     "multiplier=1.5, note=None)"),
    (OrderReduction, {"y": X, "psi": ONE, "ode": X, "params": {"p": 1}},
     "OrderReduction(y=Sym('x'), psi=Num(1.0), ode=Sym('x'), "
     "params={'p': 1})"),
]


@pytest.mark.parametrize("cls, fields, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_nodes_and_records_are_values(cls, fields, text):
    values = tuple(fields.values())
    value = cls(**fields)
    assert repr(value) == text

    # equal to its own class with the same fields, and to nothing else
    same = cls(*values)
    assert value == same and not value != same
    assert value != values and not value == values
    try:
        expected = hash(values)
    except TypeError:  # a dict or an array field
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected

    for name in fields:
        assert getattr(value, name) is fields[name]
        if cls is not Field:  # see the test below
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and repr(copy) == text
    if cls is not Field:  # arrays compare elementwise
        assert copy == value


@pytest.mark.parametrize("cls, fields, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_no_field_or_new_attribute_can_be_set(cls, fields, text):
    # a Field's arrays stay writable, but the record is not
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_node_kinds_and_signed_zeros():
    assert Add(X, ONE) != Mul(X, ONE)
    assert hash(Add(X, ONE)) == hash(Mul(X, ONE)) == hash((X, ONE))
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert parse("x+1") == Add(X, ONE)
    assert {Add(X, ONE): 1}[Add(Sym("x"), Num(1.0))] == 1


def test_record_defaults():
    assert Solution(X) == Solution(X, (), "")
    assert Grid(0.0, 1.0, 9, 0.5).dt is None
    assert ClassificationResult(4, {}, ()).note is None
    assert ReductionReport("4.1", True, 0.0, 1.0).note is None
    assert CoefficientRule() == CoefficientRule(None, None, None)
