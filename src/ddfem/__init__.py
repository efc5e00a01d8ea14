"""Stiffness matrices for scalar elliptic finite element problems and their
symmetric diagonally dominant approximations, with quality scalars, bound
verification, and a preconditioned conjugate gradient demo solver."""

from .assembly import (
    assemble_global,
    assemble_load,
    element_geometry,
    element_stiffness,
    load_matrix_text,
    save_matrix_text,
)
from .dd_approx import (
    build_dbar,
    build_h_blocks,
    build_kbar,
)
from .factorization import (
    IncidenceMatrix,
    build_incidence,
    verify_first_factorization,
)
from .mesh import (
    ConductivityField,
    Mesh,
    eval_conductivity,
    gen_structured_cube,
    gen_structured_square,
    insert_midpoints,
    load_mesh,
    save_mesh,
    transform_mesh,
)
from .pipeline import approximate, build_system, verify_system
from .quadrature import (
    QuadratureRule,
    exact_monomial_integral,
    make_rule,
    standard_rule,
    verify_exactness,
)
from .quality import QualityReport, compute_quality
from .reference_element import (
    ReferenceElement,
    SqpMatrix,
    build_sqp,
    make_reference,
)
from .solver import SolveResult, cg_iteration_bound, factor_kbar, pcg_solve
from .spectral import (
    PencilSpectrum,
    chi_report,
    condition_pair,
    global_support_check,
)

__version__ = "0.1.0"

__all__ = [
    "ConductivityField",
    "IncidenceMatrix",
    "Mesh",
    "PencilSpectrum",
    "QualityReport",
    "QuadratureRule",
    "ReferenceElement",
    "SolveResult",
    "SqpMatrix",
    "approximate",
    "assemble_global",
    "assemble_load",
    "build_dbar",
    "build_h_blocks",
    "build_incidence",
    "build_kbar",
    "build_sqp",
    "build_system",
    "cg_iteration_bound",
    "chi_report",
    "compute_quality",
    "condition_pair",
    "element_geometry",
    "element_stiffness",
    "eval_conductivity",
    "exact_monomial_integral",
    "factor_kbar",
    "gen_structured_cube",
    "gen_structured_square",
    "global_support_check",
    "insert_midpoints",
    "load_matrix_text",
    "load_mesh",
    "make_reference",
    "make_rule",
    "pcg_solve",
    "save_matrix_text",
    "save_mesh",
    "standard_rule",
    "transform_mesh",
    "verify_exactness",
    "verify_first_factorization",
    "verify_system",
]
