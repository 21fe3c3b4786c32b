"""Stability analysis of mixed finite elements with different spaces per velocity component.

The package decides, analytically and numerically, whether velocity/pressure
combinations such as (P1b, P1) x P1 or (P2, P1) x P1 satisfy the discrete
inf-sup (LBB) condition on a given triangulation, repairs meshes that fail,
and runs the associated desk-scale Stokes experiments.
"""

from .mesh import (
    Mesh,
    MeshMetrics,
    MeshError,
    StokestabError,
    load_msh,
    save_msh,
    save_vtk,
    gen_structured_tri,
    gen_zigzag,
    gen_perturbed,
    gen_extruded_tet,
    gen_structured_cube,
    gen_quad_macro,
)
from .fespace import FECombo, DofMap, eval_basis, quadrature, build_dofmap
from .macroelement import (
    MacroElement,
    StructureFlags,
    RegularityVerdict,
    build_macroelements,
    classify_2d,
    classify_3d,
    s_condition,
    predict_regularity,
    predict_regularity_3d,
)
from .infsup import (
    LocalNullspace,
    InfSupResult,
    local_nullspace,
    analytic_singular_pressure,
    global_counterexample,
    infsup_constant,
)
from .stokes import (
    StokesSystem,
    Solution,
    ErrorReport,
    assemble,
    solve_penalized,
    cavity_problem,
    convergence_study,
)
from .unstructure import UnstructureConfig, apply_algorithm1, verify_uniform

__version__ = "0.1.0"
