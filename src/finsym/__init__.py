"""Symmetry structure of nonlinear fin equations u_t = (D(u) u_x)_x + h(x) u.

The package classifies equations of this class by the shape of (D, h),
emits the corresponding Lie symmetry basis, builds equivalence
transformations and the named case-to-case maps, constructs similarity
reductions with their exact solutions, lists the conservation laws of the
constant-source subclass, and verifies all of these objects both
symbolically (seeded randomized zero tests) and numerically (a
finite-difference oracle).
"""

from .expressions import (
    Expression, parse, to_string, differentiate, evaluate,
    compile_expressions, substitute, equivalent,
)
from .model import (
    PowerU, ShiftedPowerU, ExpU, ReciprocalShift, FreeD,
    PowerX, ExpX, InverseSquareX, ConstantH, H1, FreeH,
    FinEquation, VectorField, Solution, validate, equations_equal,
    equation_to_json, equation_from_json, load_equation_file,
)
from .classify import ClassificationResult, classify
from .symmetry import (
    JetResidual, prolonged_residual, symmetry_residual, conditional_residual,
)
from .equivalence import (
    PointTransformation, OutsideClassReport, make_group_element,
    apply_to_equation, additional_equivalence, push_forward_field,
    push_forward_solution, map_by_label,
)
from .reductions import (
    Reduction, build_reduction, exact_solution, verify_reduction,
    order_reduce_61, check_order_reduction_61, solve_algebraic,
    reduction_chain_solution, nonclassical_equation,
)
from .conservation import (
    ConservationLaw, conservation_laws, divergence_residual,
    discrete_balance_error,
)
from .numeric import (
    Grid, Field, DirichletBC, NoFluxBC, solve_pde, pde_residual_grid,
    pde_residual_expression, integrate_reduced_ode, shoot_reduced_ode,
)

__version__ = "0.1.0"
