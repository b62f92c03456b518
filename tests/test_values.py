"""Expression nodes and records are immutable values.

Each class prints as ``Name(field=value, ...)``, equals only an instance
of its own class with equal fields, hashes as its field tuple, refuses
assignment, and survives a pickle round trip.
"""
import pickle

import numpy as np
import pytest

from finsym.classify import ClassificationResult
from finsym.conservation import ConservationLaw
from finsym.equivalence import (
    CoefficientRule, OutsideClassReport, PointTransformation,
)
from finsym.expressions import (
    Add, Call, Div, Mul, Neg, Num, Pow, Sub, Sym, parse,
)
from finsym.model import (
    ConstantH, DShape, FinEquation, FreeD, HShape, PowerU, Solution, Spec,
    SpecKindError, VectorField,
)
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
    (DShape, {"kind": "power", "coeff": 1.0, "n": 2.0, "beta": 0.0,
              "k": 1.0},
     "DShape(kind='power', coeff=1.0, n=2.0, beta=0.0, k=1.0)"),
    (HShape, {"kind": "h1", "coeff": -1.0, "q": 2.0, "k": 1.0, "p": -1,
              "shift": 0.5},
     "HShape(kind='h1', coeff=-1.0, q=2.0, k=1.0, p=-1, shift=0.5)"),
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
    (PointTransformation,
     {"label": "G", "t_new": X, "x_new": X, "u_new": X, "t_old": X,
      "x_old": X, "u_old": X, "d_rule": None, "h_rule": None,
      "requires_d": None, "requires_h": None, "outside_class": None},
     "PointTransformation(label='G', t_new=Sym('x'), x_new=Sym('x'), "
     "u_new=Sym('x'), t_old=Sym('x'), x_old=Sym('x'), u_old=Sym('x'), "
     "d_rule=None, h_rule=None, requires_d=None, requires_h=None, "
     "outside_class=None)"),
    (ConservationLaw, {"density": X, "flux": ONE, "characteristic": X},
     "ConservationLaw(density=Sym('x'), flux=Num(1.0), "
     "characteristic=Sym('x'))"),
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
    assert DShape("exp") == DShape("exp", 1.0, 0.0, 0.0, 1.0)
    assert HShape("zero") == HShape("zero", 0.0, 0.0, 1.0, 0, 0.0)
    assert (PointTransformation("G", *[X] * 6)
            == PointTransformation("G", *[X] * 6, *[None] * 5))


def test_an_equation_is_a_value_of_its_specs():
    # a plain class, not a record (construction validates, and d_u and jet
    # are kept in its __dict__); those kept values are not part of it
    used = FinEquation(FreeD(parse("u^2+1")), ConstantH(1))
    fresh = FinEquation(FreeD(parse("u^2+1")), ConstantH(1))
    text = ("FinEquation(D=Spec(var='u', family='free', params=(Add("
            "left=Pow(left=Sym('u'), right=Num(2.0)), right=Num(1.0)),)), "
            "h=Spec(var='x', family='constant', params=(1,)))")
    before = hash(used)
    assert used.jet.d_u is used.d_u
    assert used == fresh and not used != fresh
    assert hash(used) == hash(fresh) == before == hash((used.D, used.h))
    assert repr(used) == repr(fresh) == text
    assert used != (used.D, used.h)
    assert used != FinEquation(PowerU(2), ConstantH(1))

    copy = pickle.loads(pickle.dumps(used))
    assert type(copy) is FinEquation and copy == used
    # the pickle carries the specs, not the pieces kept after reading them
    assert pickle.dumps(used) == pickle.dumps(fresh)
    assert "jet" not in vars(copy) and copy.d_u is not used.d_u
    for name in ("D", "h", "extra"):
        with pytest.raises(AttributeError):
            setattr(used, name, None)
    for name in ("D", "jet"):
        with pytest.raises(AttributeError):
            delattr(used, name)
    assert used.jet.d_u is used.d_u


def test_a_replaced_equation_is_validated_and_keeps_nothing():
    eq = FinEquation(PowerU(2), ConstantH(1))
    assert eq.jet.d_u is eq.d_u
    replaced = eq._replace(h=ConstantH(3))
    assert replaced == FinEquation(PowerU(2), ConstantH(3))
    assert vars(replaced) == {"D": PowerU(2), "h": ConstantH(3), "ranges": {}}
    assert eq._replace() == eq and eq._replace() is not eq
    with pytest.raises(SpecKindError):
        eq._replace(D=ConstantH(1))
    with pytest.raises(TypeError):
        eq._replace(k=ConstantH(1))
