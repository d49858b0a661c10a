"""Coordinate-chart workbench for finite-rank Lie algebroids.

Everything lives over a single coordinate chart: algebroids are given
by anchor and structure-function matrices of symbolic expressions,
maps into them are dense grids of sample values, and the interesting
invariants (transgression pairings, monodromy periods) are computed
numerically with error estimates.  The submodules stack up as

``expr``
    tiny symbolic expression layer (parse, differentiate, evaluate),
``core``
    charts, algebroids, the bracket, axiom checking, constructors,
``cubes``
    discretised cubes of algebroid morphisms and their calculus,
``fibration``
    fibrations of algebroids, connections, curvature, transport,
``transgression``
    transgression of the curvature against spheres, monodromy groups,
    and path decomposition,
``cli``
    a config-driven command line front end (``algebroids run ...``).

Importing the package loads none of them.  Each public name resolves
on first use (PEP 562): ``algebroids.Cube`` imports ``cubes`` then, and
is the very object ``algebroids.cubes.Cube``.  So ``import
algebroids.cli`` pays only for the modules the command line needs
before its first task runs.
"""

from importlib import import_module

_HOMES = {
    "core": (
        "Algebroid", "AxiomReport", "AxiomWitness", "Chart", "Section", "check_axioms", "direct_sum",
        "make_cotangent_poisson", "make_explicit", "make_jacobi_extension", "make_lie_algebra",
        "make_rep_extension", "make_tangent", "so3_structure",
    ),
    "cubes": (
        "ChartEscapeError", "Cube", "MorphismResidual", "concat", "cotangent_lift", "cube_from_sections",
        "face", "homotopy_defect", "load_cube", "morphism_residual", "path_cube", "reverse", "save_cube",
        "sphere_defect", "tangent_lift",
    ),
    "expr": ("Expr", "evaluate", "parse"),
    "fibration": (
        "Curvature2Form", "Fibration", "anchor_fibration", "covariant_derivative", "curvature",
        "identity_residuals", "jacobi_fibration", "lift_cube", "project_cube", "rep_extension_fibration",
        "splitting_from_projection", "transport_matrix",
    ),
    "transgression": (
        "MonodromyReport", "PathDecomposition", "TransgressionResult", "decompose_path", "monodromy_group",
        "monodromy_period", "transgress2_formula", "transgress_lift",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
