"""The package surface, and what a cold process imports for it."""
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import finsym

#: the names ``from finsym import *`` gives, by the module defining them
SURFACE = {
    "expressions": (
        "Expression", "parse", "to_string", "differentiate", "evaluate",
        "compile_expressions", "substitute", "equivalent",
    ),
    "model": (
        "PowerU", "ShiftedPowerU", "ExpU", "ReciprocalShift", "FreeD",
        "PowerX", "ExpX", "InverseSquareX", "ConstantH", "H1", "FreeH",
        "FinEquation", "VectorField", "Solution", "validate",
        "equations_equal", "equation_to_json", "equation_from_json",
        "load_equation_file", "pde_residual_grid", "pde_residual_expression",
    ),
    "classify": ("ClassificationResult", "classify"),
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
#: the submodules the package gives by name; ``classify`` is the function
MODULES = ("conservation", "equivalence", "expressions", "model", "numeric",
           "reductions", "symmetry")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(finsym.__file__)))
#: the equation files the cold calls below read, by name: case 4 with a
#: sink has an exact solution, case 10 conservation laws and a named map
EQUATIONS = {
    "case4": {"D": {"family": "power_u", "n": 2},
              "h": {"family": "power_x", "q": 3, "eps": 1}},
    "case4-sink": {"D": {"family": "power_u", "n": 2},
                   "h": {"family": "power_x", "q": 3, "eps": -1}},
    "case10": {"D": {"family": "power_u", "n": 2},
               "h": {"family": "constant", "c": 1}},
}


def test_star_import_gives_the_package_surface():
    namespace = {}
    exec("from finsym import *", namespace)
    del namespace["__builtins__"]
    names = {name for names in SURFACE.values() for name in names}
    assert len(namespace) == 70
    assert set(namespace) == names | set(MODULES)
    for module in MODULES:
        assert namespace[module] is sys.modules[f"finsym.{module}"]
    assert isinstance(namespace["classify"], types.FunctionType)
    assert finsym.classify is namespace["classify"]
    for module, names in SURFACE.items():
        home = importlib.import_module(f"finsym.{module}")
        for name in names:
            assert namespace[name] is getattr(home, name), name
            assert getattr(finsym, name) is namespace[name], name


def test_each_lazy_name_is_public_in_its_module():
    for module, names in finsym._LAZY.items():
        home = importlib.import_module(f"finsym.{module}")
        assert set(names) <= set(home.__all__), module


def test_dir_lists_the_lazy_names_before_they_load():
    listed = dir(finsym)
    assert set(finsym.__all__) <= set(listed)
    assert "solve_pde" in listed and "symmetry" in listed
    assert listed == sorted(listed)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve'"):
        finsym.solve


def _dataclasses(names) -> set:
    """The dataclasses that the modules ``finsym.<name>`` define."""
    modules = [importlib.import_module(f"finsym.{name}") for name in names]
    return {value.__qualname__ for module in modules
            for value in vars(module).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__}


def test_eager_modules_define_no_dataclass():
    # each dataclass generates and compiles its methods when its module
    # loads, about 0.7 ms of every cold CLI call, and the dataclasses
    # module imports inspect, 5-7 ms more
    assert _dataclasses(("expressions", "model", "classify", "cli")) == set()
    assert not _loaded("import finsym.cli") & {"dataclasses", "inspect"}


def test_only_the_reduction_is_a_dataclass():
    # every other value class is a model._record, or FinEquation, a plain
    # class
    modules = [info.name for info in pkgutil.iter_modules(finsym.__path__)]
    assert _dataclasses(modules) == {"Reduction"}


#: prints, as the process exits, the names of the modules it imported
_REPORT = ("import atexit, sys\n"
           "atexit.register(lambda: print(' '.join(sys.modules)))\n")


def _loaded(code: str, *argv: str) -> set:
    """Run ``code`` in a fresh interpreter with ``argv``, and return the
    names of the modules imported by the time it ended; the code must
    exit 0."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _REPORT + code, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _numpy_loaded(code: str, *argv: str) -> bool:
    return "numpy" in _loaded(code, *argv)


_CLI = ("import runpy\n"
        "runpy.run_module('finsym.cli', run_name='__main__')")
_SIMULATE = ["simulate", "--initial", "1+x", "--left", "2", "--right", "3",
             "--xa", "1", "--xb", "2", "--m", "9", "--t-final", "0.001"]


@pytest.fixture(scope="module")
def equation_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("cold")
    paths = {}
    for name, doc in EQUATIONS.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def test_import_and_help_skip_numpy():
    assert not _numpy_loaded("import finsym")
    assert not _numpy_loaded(_CLI, "--help")


@pytest.mark.parametrize("name", ["pde_residual_grid",
                                  "pde_residual_expression"])
def test_the_model_names_leave_the_solver_unloaded(name):
    # both live in model, which the package loads eagerly
    loaded = _loaded(f"import finsym\nfinsym.{name}")
    assert "finsym.model" in loaded and "finsym.numeric" not in loaded
    import finsym.numeric
    assert getattr(finsym.numeric, name) is getattr(finsym, name)
    assert name in finsym.__all__ and name in finsym.numeric.__all__


def test_symmetry_loads_no_numpy():
    # the jet test samples through expressions, which imports numpy when
    # it first evaluates
    assert not _numpy_loaded("import finsym.symmetry")
    assert _numpy_loaded("import finsym as f\n"
                         "f.symmetry_residual(f.FinEquation(f.ExpU(), "
                         "f.ConstantH(1)), f.VectorField.parse_triple("
                         "'1;0;0'))")


@pytest.mark.parametrize("argv", [
    ["classify", "--json"], ["symmetries", "--json"],
    ["reduce", "--sub", "1", "--json"],
])
def test_symbolic_subcommands_skip_numpy(argv, equation_files):
    loaded = _loaded(_CLI, argv[0], "--eq", equation_files["case4"],
                     *argv[1:])
    assert "numpy" not in loaded
    # only transform needs the equivalence maps
    assert "finsym.classify" in loaded
    assert "finsym.equivalence" not in loaded


def test_transform_loads_equivalence(equation_files):
    loaded = _loaded(_CLI, "transform", "--eq", equation_files["case10"],
                     "--map", "10-to-11")
    assert "finsym.equivalence" in loaded


@pytest.mark.parametrize("argv", [
    ["verify-symmetry", "--field=-6*t;2*x;5*u"], _SIMULATE,
])
def test_numeric_subcommands_load_numpy(argv, equation_files):
    # the other direction: the check above can see numpy when it is loaded
    assert _numpy_loaded(_CLI, argv[0], "--eq", equation_files["case4"],
                         *argv[1:])


#: a call of each of the nine subcommands that exits 0, with its equation
SUBCOMMANDS = [
    ("case4", ["classify", "--json"]),
    ("case4", ["symmetries", "--json"]),
    ("case4", ["verify-symmetry", "--field=-6*t;2*x;5*u"]),
    ("case10", ["transform", "--map", "10-to-11"]),
    ("case4", ["reduce", "--sub", "1", "--json"]),
    ("case4-sink", ["exact", "--json"]),
    ("case10", ["conserve", "--json"]),
    ("case4", _SIMULATE),
    ("case4", ["residual", "--solution", "x*t", "--json"]),
]


@pytest.mark.parametrize("name, argv", SUBCOMMANDS,
                         ids=[argv[0] for _, argv in SUBCOMMANDS])
def test_only_simulate_loads_the_solver(name, argv, equation_files):
    # a module a cold call imports costs its compile even if nothing in
    # it runs; exact, residual and conserve run no solver
    loaded = _loaded(_CLI, argv[0], "--eq", equation_files[name], *argv[1:])
    assert ("finsym.numeric" in loaded) == (argv[0] == "simulate")
