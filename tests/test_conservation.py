import dataclasses

import pytest

from finsym.conservation import (
    AntiderivativeError, conservation_laws, discrete_balance_error,
    divergence_residual,
)
from finsym.expressions import equivalent, neg, parse
from finsym.model import (
    ConstantH, ExpU, FinEquation, FreeD, FreeH, PowerU, ReciprocalShift,
    ShiftedPowerU,
)
from finsym.numeric import Grid

JET = {"u_t": (-2.0, 2.0), "u_x": (-2.0, 2.0), "u_xx": (-2.0, 2.0)}


def test_linear_diffusion_unit_h_laws():
    eq = FinEquation(PowerU(1), ConstantH(1))
    law_x, law_1 = conservation_laws(eq)
    assert equivalent(law_1.density, parse("exp(-t)*u"), seed=1)
    assert equivalent(law_1.flux, parse("-exp(-t)*u*u_x"), seed=2)
    assert equivalent(law_1.characteristic, parse("exp(-t)"), seed=3)
    assert equivalent(law_x.density, parse("x*exp(-t)*u"), seed=4)
    assert equivalent(law_x.flux, parse("exp(-t)*(-x*u*u_x+u^2/2)"), seed=5)
    assert equivalent(law_x.characteristic, parse("x*exp(-t)"), seed=6)


def test_exponential_diffusion_zero_h_laws():
    eq = FinEquation(ExpU(), ConstantH(0))
    law_x, law_1 = conservation_laws(eq)
    assert equivalent(law_x.density, parse("x*u"), seed=7)
    assert equivalent(law_x.flux, parse("-x*exp(u)*u_x+exp(u)"), seed=8)
    assert equivalent(law_1.density, parse("u"), seed=9)


def test_nonconstant_h_has_no_laws():
    assert conservation_laws(FinEquation(PowerU(2), FreeH(parse("x")))) == []


def test_free_d_with_constant_h_unsupported():
    with pytest.raises(AntiderivativeError):
        conservation_laws(FinEquation(FreeD(parse("u^2+1")), ConstantH(1)))


CONST_H_TABLE = [
    FinEquation(PowerU(1), ConstantH(1)),
    FinEquation(PowerU(-4 / 3), ConstantH(-1)),
    FinEquation(PowerU(-1), ConstantH(2)),
    FinEquation(ExpU(), ConstantH(0)),
    FinEquation(ReciprocalShift(), ConstantH(1)),
    FinEquation(ShiftedPowerU(2, 1), ConstantH(0)),
    FinEquation(ShiftedPowerU(-1, 1), ConstantH(-1)),
]


@pytest.mark.parametrize("eq", CONST_H_TABLE, ids=lambda e: str(e)[:36])
def test_divergence_identity_on_jet_space(eq):
    for law in conservation_laws(eq):
        residual, ok = divergence_residual(law, eq, tol=1e-9)
        assert ok, residual.max_relative()


def test_flux_sign_flip_fails():
    eq = FinEquation(PowerU(1), ConstantH(1))
    law = conservation_laws(eq)[1]
    broken = dataclasses.replace(law, flux=neg(law.flux))
    _, ok = divergence_residual(broken, eq)
    assert not ok


def test_discrete_balance_second_order():
    eq = FinEquation(PowerU(1), ConstantH(1))
    initial = parse("1+2*x*(1-x)")
    coarse = discrete_balance_error(eq, initial, Grid(0.0, 1.0, 81, 0.02))
    fine = discrete_balance_error(eq, initial, Grid(0.0, 1.0, 161, 0.02))
    assert coarse > 0 and fine > 0
    assert coarse / fine >= 3.5
