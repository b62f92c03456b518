"""Symmetry structure of nonlinear fin equations u_t = (D(u) u_x)_x + h(x) u.

The package classifies equations of this class by the shape of (D, h),
emits the corresponding Lie symmetry basis, builds equivalence
transformations and the named case-to-case maps, constructs similarity
reductions with their exact solutions, lists the conservation laws of the
constant-source subclass, and verifies all of these objects both
symbolically (seeded randomized zero tests) and numerically (a
finite-difference oracle).

``expressions``, ``model`` and ``classify`` load with the package; the
other modules load when one of their names is first looked up here.
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
    pde_residual_grid, pde_residual_expression,
)
# eager: a lazy ``classify`` would be the submodule, which shadows the
# function once the submodule is imported
from .classify import ClassificationResult, classify

#: the names each lazily loaded module gives the package
_LAZY = {
    "symmetry": (
        "JetResidual", "prolonged_residual", "symmetry_residual",
        "conditional_residual",
    ),
    "equivalence": (
        "PointTransformation", "OutsideClassReport", "make_group_element",
        "apply_to_equation", "additional_equivalence", "push_forward_field",
        "push_forward_solution", "map_by_label",
    ),
    "reductions": (
        "Reduction", "build_reduction", "exact_solution", "verify_reduction",
        "order_reduce_61", "check_order_reduction_61", "solve_algebraic",
        "reduction_chain_solution", "nonclassical_equation",
    ),
    "conservation": (
        "ConservationLaw", "conservation_laws", "divergence_residual",
        "discrete_balance_error",
    ),
    "numeric": (
        "Grid", "Field", "DirichletBC", "NoFluxBC", "solve_pde",
        "integrate_reduced_ode", "shoot_reduced_ode",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

#: every public name: those imported above, and the lazy modules and names
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _LAZY.keys() | _HOME.keys())

__version__ = "0.1.0"


def __getattr__(name):
    """Load a lazy module, or the module that defines a lazy name."""
    import importlib

    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
