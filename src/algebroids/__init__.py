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
"""

from .core import (
    Algebroid,
    AxiomReport,
    AxiomWitness,
    Chart,
    Section,
    check_axioms,
    direct_sum,
    make_cotangent_poisson,
    make_explicit,
    make_jacobi_extension,
    make_lie_algebra,
    make_rep_extension,
    make_tangent,
    so3_structure,
)
from .cubes import (
    ChartEscapeError,
    Cube,
    MorphismResidual,
    concat,
    cotangent_lift,
    cube_from_sections,
    face,
    homotopy_defect,
    load_cube,
    morphism_residual,
    path_cube,
    reverse,
    save_cube,
    sphere_defect,
    tangent_lift,
)
from .expr import Expr, evaluate, parse
from .fibration import (
    Curvature2Form,
    Fibration,
    anchor_fibration,
    covariant_derivative,
    curvature,
    identity_residuals,
    jacobi_fibration,
    lift_cube,
    project_cube,
    rep_extension_fibration,
    splitting_from_projection,
    transport_matrix,
)
from .transgression import (
    MonodromyReport,
    PathDecomposition,
    TransgressionResult,
    decompose_path,
    monodromy_group,
    monodromy_period,
    transgress2_formula,
    transgress_lift,
)

__all__ = [
    "Algebroid",
    "AxiomReport",
    "AxiomWitness",
    "Chart",
    "ChartEscapeError",
    "Cube",
    "Curvature2Form",
    "Expr",
    "Fibration",
    "MonodromyReport",
    "MorphismResidual",
    "PathDecomposition",
    "Section",
    "TransgressionResult",
    "anchor_fibration",
    "check_axioms",
    "concat",
    "cotangent_lift",
    "covariant_derivative",
    "cube_from_sections",
    "curvature",
    "decompose_path",
    "direct_sum",
    "evaluate",
    "face",
    "homotopy_defect",
    "identity_residuals",
    "jacobi_fibration",
    "lift_cube",
    "load_cube",
    "make_cotangent_poisson",
    "make_explicit",
    "make_jacobi_extension",
    "make_lie_algebra",
    "make_rep_extension",
    "make_tangent",
    "monodromy_group",
    "monodromy_period",
    "morphism_residual",
    "parse",
    "path_cube",
    "project_cube",
    "rep_extension_fibration",
    "reverse",
    "save_cube",
    "so3_structure",
    "sphere_defect",
    "splitting_from_projection",
    "tangent_lift",
    "transgress2_formula",
    "transgress_lift",
    "transport_matrix",
]
__version__ = "0.1.0"
