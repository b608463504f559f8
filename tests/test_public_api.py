"""The public names and the keyword options of the public functions, pinned.

A keyword that no caller outside the tests sets is surface without a user
(``notes/decisions.md``, "No option that only tests set"), so adding or
removing one, or a name of ``triafem.__all__``, shows up here as a change
to these lists.
"""

import inspect

import triafem

PUBLIC_NAMES = [
    "AfemResult", "AfemRunError", "AfemTrace", "CheckResult", "DiscreteSolution",
    "EstimatorReport", "LinearProblem", "MarkingResult", "Mesh", "MeshError",
    "NonlinearProblem", "NonlinearSolveError", "RefinementRecord", "SolverError",
    "SparseSystem", "assemble_linear", "builtin_names", "builtin_problem",
    "check_convergence", "check_discrete_reliability", "check_estimator_reduction",
    "check_marking_optimality", "check_mesh_audit", "check_quasi_orthogonality",
    "check_rlinear", "closure_audit", "energy_products", "estimate", "fit_rate",
    "grad_norm_sq", "load_initial_mesh", "lshape_mesh", "mark_binned", "mark_min",
    "overlay", "refine_nvb", "run_afem", "run_uniform", "shape_regularity",
    "solve_linear", "solve_nonlinear", "transfer", "transfer_many", "uniform_refine",
    "unit_square_mesh", "volume_samples", "write_mesh",
]

KEYWORD_OPTIONS = [
    "run_afem.max_elements",
    "run_afem.eta_tol",
    "run_afem.marking",
    "run_afem.keep_history",
    "run_afem.compute_reference",
    "run_afem.initial_mesh",
    "run_uniform.max_elements",
    "run_uniform.eta_tol",
    "run_uniform.keep_history",
    "run_uniform.initial_mesh",
    "shape_regularity.elements",
    "solve_nonlinear.initial_guess",
    "volume_samples.carry",
    "uniform_refine.times",
    "unit_square_mesh.cross",
]


def test_public_keyword_options_are_pinned():
    # every parameter with a default of every function in triafem.__all__
    options = []
    for name in triafem.__all__:
        obj = getattr(triafem, name)
        if inspect.isfunction(obj):
            options += [f"{name}.{p.name}" for p in inspect.signature(obj).parameters.values()
                        if p.default is not inspect.Parameter.empty]
    assert sorted(options) == sorted(KEYWORD_OPTIONS)
    assert len(KEYWORD_OPTIONS) == 15


def test_public_names_are_pinned():
    assert sorted(triafem.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 47
