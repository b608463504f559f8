"""The keyword options of the public functions, pinned.

A keyword that no caller outside the tests sets is surface without a user
(``notes/decisions.md``, "No option that only tests set"), so adding or
removing one shows up here as a change to this list.
"""

import inspect

import triafem

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
