"""Adaptive P1 finite elements on 2D triangle meshes.

The package implements the solve-estimate-mark-refine loop for second
order elliptic problems (linear non-symmetric and strongly monotone
nonlinear), together with the diagnostics used to verify estimator
reduction, quasi-orthogonality, R-linear decay of the estimator and
convergence rates.
"""

from .assembly import (
    DiscreteSolution,
    NonlinearSolveError,
    SolverError,
    SparseSystem,
    assemble_linear,
    energy_products,
    grad_norm_sq,
    solve_linear,
    solve_nonlinear,
    transfer,
    transfer_many,
    volume_samples,
)
from .checks import (
    CheckResult,
    check_convergence,
    check_discrete_reliability,
    check_estimator_reduction,
    check_marking_optimality,
    check_mesh_audit,
    check_quasi_orthogonality,
    check_rlinear,
    fit_rate,
)
from .driver import AfemResult, AfemRunError, AfemTrace, run_afem, run_uniform
from .estimator import EstimatorReport, estimate
from .marking import MarkingResult, mark_binned, mark_min
from .mesh import (
    Mesh,
    MeshError,
    RefinementRecord,
    closure_audit,
    load_initial_mesh,
    lshape_mesh,
    overlay,
    refine_nvb,
    shape_regularity,
    uniform_refine,
    unit_square_mesh,
    write_mesh,
)
from .problems import LinearProblem, NonlinearProblem, builtin_names, builtin_problem

__all__ = [
    "AfemResult",
    "AfemRunError",
    "AfemTrace",
    "CheckResult",
    "DiscreteSolution",
    "EstimatorReport",
    "LinearProblem",
    "MarkingResult",
    "Mesh",
    "MeshError",
    "NonlinearProblem",
    "NonlinearSolveError",
    "RefinementRecord",
    "SolverError",
    "SparseSystem",
    "assemble_linear",
    "builtin_names",
    "builtin_problem",
    "check_convergence",
    "check_discrete_reliability",
    "check_estimator_reduction",
    "check_marking_optimality",
    "check_mesh_audit",
    "check_quasi_orthogonality",
    "check_rlinear",
    "closure_audit",
    "energy_products",
    "estimate",
    "fit_rate",
    "grad_norm_sq",
    "load_initial_mesh",
    "lshape_mesh",
    "mark_binned",
    "mark_min",
    "overlay",
    "refine_nvb",
    "run_afem",
    "run_uniform",
    "shape_regularity",
    "solve_linear",
    "solve_nonlinear",
    "transfer",
    "transfer_many",
    "volume_samples",
    "uniform_refine",
    "unit_square_mesh",
    "write_mesh",
]
