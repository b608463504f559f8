import dataclasses
import time

import numpy as np
import pytest
import helpers_fem
import helpers_mesh
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers_fem import (
    assemble_operator,
    contracted_jacobian_per_point,
    element_system_per_point,
    energy_per_point,
    evaluate,
    exact_error_per_point,
    gradients_per_point,
    h1_error_sq,
    jacobian_per_point,
    l2_norm,
    nonlinear_estimate_at_centroids,
    presorted_solve,
    residual_per_point,
    restrict_functional,
    scatter_oracle,
    skew_flux_problem,
    two_block_newton,
    varying_linear_problem,
    wide_magnitudes,
    without_solution,
)
import scipy.sparse.linalg as spla

from triafem import assembly, driver
from triafem.assembly import (
    AssemblyError,
    DiscreteSolution,
    NonlinearSolveError,
    SolverError,
    SparsePattern,
    _scatter,
    _symmetric_factor,
    assemble_linear,
    element_gradients,
    energy_products,
    exact_energy_error,
    flux_terms,
    grad_norm_sq,
    laplace_stiffness,
    nonlinear_jacobian,
    nonlinear_residual,
    solve_linear,
    solve_nonlinear,
    transfer,
    transfer_many,
    volume_samples,
)
from triafem.estimator import estimate
from triafem.mesh import (
    Mesh,
    lshape_mesh,
    refine_nvb,
    uniform_refine,
    unit_square_mesh,
)
from triafem.problems import (
    LinearProblem,
    NonlinearProblem,
    builtin_problem,
)
from triafem.problems import _constant_matrix, _constant_scalar, _constant_vector


def poisson(source=_constant_scalar(1.0), **kw):
    return LinearProblem(
        name="poisson", diffusion=_constant_matrix(np.eye(2)), source=source,
        ellipticity_const=1.0, **kw,
    )


def interpolate(mesh, fn):
    values = fn(mesh.vertices)
    values[mesh.is_boundary_vertex] = 0.0
    return DiscreteSolution(mesh, values)


def test_solution_copies_the_callers_values():
    # the caller's array stays writable and its own; the solution's copy
    # keeps its bits and is read-only
    mesh = uniform_refine(unit_square_mesh(cross=True), 1)
    values = np.where(mesh.is_boundary_vertex, 0.0, np.linspace(-1.0, 1.0, mesh.n_vertices))
    kept = values.copy()
    sol = DiscreteSolution(mesh, values)
    assert sol.values is not values and values.flags.writeable
    assert not sol.values.flags.writeable
    values += 1.0
    assert np.array_equal(sol.values, kept)


def test_grad_norm_sq_has_the_bits_of_the_axis_sum():
    # the length-2 sum written out as two terms, with squares that
    # underflow and overflow
    mesh = uniform_refine(unit_square_mesh(cross=True), 1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        values = wide_magnitudes(rng, mesh.n_vertices)
        g = element_gradients(mesh, values)
        with np.errstate(over="ignore", under="ignore"):
            assert np.array_equal(grad_norm_sq(mesh, values),
                                  float(np.sum(mesh.areas * np.sum(g * g, axis=1))))


def test_p1_gradients_reference_triangle():
    from triafem.mesh import load_initial_mesh

    mesh = load_initial_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    grads = mesh.basis_gradients
    assert mesh.basis_gradients is grads and not grads.flags.writeable
    tri = mesh.triangles[0]
    by_vertex = {tuple(mesh.vertices[tri[k]]): grads[0, k] for k in range(3)}
    assert by_vertex[(0.0, 0.0)] == pytest.approx([-1.0, -1.0])
    assert by_vertex[(1.0, 0.0)] == pytest.approx([1.0, 0.0])
    assert by_vertex[(0.0, 1.0)] == pytest.approx([0.0, 1.0])


def test_all_boundary_mesh_gives_empty_system():
    mesh = unit_square_mesh()
    system = assemble_linear(mesh, volume_samples(mesh, poisson()))
    assert system.rhs.shape == (0,)
    sol = solve_linear(system)
    assert np.all(sol.values == 0.0)


def test_stiffness_row_sums():
    mesh = uniform_refine(unit_square_mesh(cross=True), 4)
    matrix, _ = assemble_operator(mesh, poisson())
    # constants lie in the kernel of the full stiffness matrix
    assert np.abs(matrix @ np.ones(mesh.n_vertices)).max() < 1e-12
    # restricted rows sum to zero whenever no neighbour is on the boundary
    system = assemble_linear(mesh, volume_samples(mesh, poisson()))
    row_sums = np.asarray(system.matrix.sum(axis=1)).ravel()
    full_csr = matrix.tocsr()
    for k, v in enumerate(mesh.interior_vertices):
        neighbours = full_csr.indices[full_csr.indptr[v]: full_csr.indptr[v + 1]]
        if not np.any(mesh.is_boundary_vertex[neighbours]):
            assert abs(row_sums[k]) < 1e-12


def test_convection_matrix_against_hand_formula():
    # b . grad(phi_j) is constant per element and int_T phi_i = |T| / 3,
    # so every entry has a closed form; this oracle walks the elements
    mesh = uniform_refine(unit_square_mesh(cross=True), 2)
    b = np.array([1.0, 0.0])
    problem = LinearProblem(
        name="pure_convection",
        diffusion=_constant_matrix(np.zeros((2, 2))),
        advection=_constant_vector(b),
        source=_constant_scalar(0.0),
    )
    matrix, _ = assemble_operator(mesh, problem)
    grads = mesh.basis_gradients
    expected = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for n, tri in enumerate(mesh.triangles):
        for j_loc, j in enumerate(tri):
            conv = b @ grads[n, j_loc]
            for i in tri:
                expected[i, j] += conv * mesh.areas[n] / 3.0
    assert np.abs(matrix.toarray() - expected).max() < 1e-13


def test_solve_zero_rhs():
    mesh = uniform_refine(unit_square_mesh(cross=True), 2)
    problem = poisson(source=_constant_scalar(0.0))
    system = assemble_linear(mesh, volume_samples(mesh, problem))
    sol = solve_linear(system)
    assert np.all(sol.values == 0.0)


def test_cross_mesh_single_dof_hand_value():
    # one interior vertex: K_cc = 4, rhs_c = 1/3, so U_c = 1/12
    mesh = unit_square_mesh(cross=True)
    system = assemble_linear(mesh, volume_samples(mesh, poisson()))
    assert system.matrix.shape == (1, 1)
    assert system.matrix[0, 0] == pytest.approx(4.0)
    assert system.rhs[0] == pytest.approx(1.0 / 3.0)
    sol = solve_linear(system)
    centre = np.nonzero(~mesh.is_boundary_vertex)[0][0]
    assert sol.values[centre] == pytest.approx(1.0 / 12.0)


def test_square_smooth_nodal_error_order():
    problem = builtin_problem("square_smooth")
    errors = []
    for levels in (4, 6):
        mesh = uniform_refine(problem.make_initial_mesh(), levels)
        sol = solve_linear(assemble_linear(mesh, volume_samples(mesh, problem)))
        errors.append(np.abs(sol.values - problem.exact_u(mesh.vertices)).max())
    ratio = errors[0] / errors[1]
    assert 3.0 < ratio < 5.0


def test_singular_system_reports_residual():
    # a zero row with a nonzero load has no solution: SuperLU finds the
    # matrix exactly singular, and the solve reports the residual contract
    mesh = uniform_refine(unit_square_mesh(cross=True), 4)
    system = assemble_linear(mesh, volume_samples(mesh, poisson()))
    matrix = system.matrix.tolil()
    matrix[0, :] = 0.0
    rhs = system.rhs.copy()
    rhs[0] = 1.0
    singular = dataclasses.replace(system, matrix=matrix.tocsr(), rhs=rhs)
    with pytest.raises(SolverError, match="contract") as err:
        solve_linear(singular)
    achieved = err.value.achieved
    assert achieved is not None and (np.isnan(achieved) or achieved > 1e-10)


@pytest.mark.parametrize("name", ["convection_diffusion", "lshape_poisson", "square_smooth"])
@settings(max_examples=10)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
def test_linear_solve_matches_spsolve_on_random_refinements(name, seeds):
    problem = builtin_problem(name)
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    for seed in seeds:
        mesh = random_refinement(np.random.default_rng(seed), mesh)
    system = assemble_linear(mesh, volume_samples(mesh, problem))
    x = solve_linear(system).values[mesh.interior_vertices]
    expected = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.linalg.norm(system.rhs - system.matrix @ x) <= 1e-10 * np.linalg.norm(system.rhs)


@pytest.fixture(scope="module")
def uniform_lshape_system():
    problem = builtin_problem("lshape_poisson")
    mesh = uniform_refine(problem.make_initial_mesh(), 13)
    system = assemble_linear(mesh, volume_samples(mesh, problem))
    assert system.rhs.size == 24_321
    return system


def factored_by_solve_linear(monkeypatch, system):
    """The SuperLU factor that ``solve_linear`` takes of ``system``."""
    factors, splu = [], spla.splu

    def kept_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", kept_splu)
    solve_linear(system)
    (lu,) = factors
    return lu


def test_linear_solve_halves_colamds_fill_on_a_uniform_mesh(monkeypatch, uniform_lshape_system):
    lu = factored_by_solve_linear(monkeypatch, uniform_lshape_system)
    colamd = spla.splu(uniform_lshape_system.matrix.tocsc())
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


def test_linear_solve_is_fast_on_the_numbering_of_uniform_bisection(uniform_lshape_system):
    # minimum degree on the bisection's own vertex numbering took about 17 s
    # here; after the coordinate presort the solve takes about 0.07 s
    tic = time.perf_counter()
    solve_linear(uniform_lshape_system)
    assert time.perf_counter() - tic < 3.0


def wrapped_linear_as_nonlinear():
    def flux(y):
        return y

    def flux_jacobian(y):
        return np.broadcast_to(np.eye(2), y.shape + (2,))

    smooth = builtin_problem("square_smooth")
    return NonlinearProblem(
        name="wrapped_poisson",
        flux=flux,
        flux_jacobian=flux_jacobian,
        source=smooth.source,
        lipschitz_const=1.0,
        monotone_const=1.0,
        exact_u=smooth.exact_u,
        exact_grad=smooth.exact_grad,
        make_initial_mesh=smooth.make_initial_mesh,
    )


def test_newton_converges_in_one_step_for_affine_residual():
    problem = wrapped_linear_as_nonlinear()
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    sol, info = solve_nonlinear(mesh, problem, volume_samples(mesh, problem))
    assert info["newton_iterations"] == 1
    assert info["fallback_iterations"] == 0
    linear_problem = builtin_problem("square_smooth")
    linear = solve_linear(assemble_linear(mesh, volume_samples(mesh, linear_problem)))
    assert np.abs(sol.values - linear.values).max() < 1e-9


def test_newton_accepts_exact_initial_guess():
    problem = builtin_problem("magnetostatics_nl")
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    samples = volume_samples(mesh, problem)
    sol, _ = solve_nonlinear(mesh, problem, samples)
    again, info = solve_nonlinear(mesh, problem, samples, initial_guess=sol)
    assert info["newton_iterations"] == 0
    assert np.array_equal(again.values, sol.values)


def test_newton_guess_must_live_on_the_mesh():
    problem = builtin_problem("magnetostatics_nl")
    coarse = problem.make_initial_mesh()
    mesh = uniform_refine(coarse, 1)
    guess = DiscreteSolution(coarse, np.zeros(coarse.n_vertices))
    with pytest.raises(ValueError, match="^initial guess lives on a different mesh$"):
        solve_nonlinear(mesh, problem, volume_samples(mesh, problem), initial_guess=guess)


def test_magnetostatics_converges_under_refinement():
    problem = builtin_problem("magnetostatics_nl")
    distances = []
    for levels in (2, 4, 6, 8):
        mesh = uniform_refine(problem.make_initial_mesh(), levels)
        sol, _ = solve_nonlinear(mesh, problem, volume_samples(mesh, problem))
        nodal = interpolate(mesh, problem.exact_u)
        distances.append(np.sqrt(grad_norm_sq(mesh, sol.values - nodal.values)))
    ratios = [b / a for a, b in zip(distances, distances[1:])]
    assert all(r < 0.6 for r in ratios)
    assert ratios[-1] < 0.52


def test_zarantonello_only_converges(monkeypatch):
    problem = builtin_problem("magnetostatics_nl")
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    samples = volume_samples(mesh, problem)
    newton, _ = solve_nonlinear(mesh, problem, samples)
    monkeypatch.setattr(assembly, "MAX_NEWTON", 0)
    sol, info = solve_nonlinear(mesh, problem, samples)
    assert info["newton_iterations"] == 0
    assert 0 < info["fallback_iterations"] <= assembly.MAX_FALLBACK
    assert np.abs(sol.values - newton.values).max() < 1e-7


def test_singular_jacobian_falls_back_to_the_riesz_iteration():
    # SuperLU finds a zero Jacobian exactly singular; Newton must hand over
    # to the fallback instead of stepping along a NaN direction
    problem = builtin_problem("magnetostatics_nl")
    singular = dataclasses.replace(
        problem, flux_jacobian=lambda y: np.zeros((y.shape[0], 2, 2)))
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    samples = volume_samples(mesh, problem)
    sol, info = solve_nonlinear(mesh, singular, samples)
    assert info["newton_iterations"] == 0
    assert info["fallback_iterations"] > 0
    zero = np.zeros(mesh.n_vertices)
    assert (np.linalg.norm(nonlinear_residual(mesh, problem, sol.values, samples))
            <= 1e-10 * np.linalg.norm(nonlinear_residual(mesh, problem, zero, samples)))
    assert np.abs(sol.values - solve_nonlinear(mesh, problem, samples)[0].values).max() < 1e-7


def test_singular_jacobian_falls_back_from_the_prolonged_guess():
    # the reference solve starts from the prolonged final iterate: with a
    # singular Jacobian the fallback takes over from that guess, which it
    # needs fewer steps from than from zero, and reaches Newton's solution
    problem = builtin_problem("magnetostatics_nl")
    singular = dataclasses.replace(
        problem, flux_jacobian=lambda y: np.zeros((y.shape[0], 2, 2)))
    coarse = uniform_refine(problem.make_initial_mesh(), 2)
    mesh = uniform_refine(coarse, 1)
    guess = transfer(solve_nonlinear(coarse, problem, volume_samples(coarse, problem))[0], mesh)
    samples = volume_samples(mesh, problem)
    sol, info = solve_nonlinear(mesh, singular, samples, guess)
    _, from_zero = solve_nonlinear(mesh, singular, samples)
    assert info["newton_iterations"] == from_zero["newton_iterations"] == 0
    assert 0 < info["fallback_iterations"] < from_zero["fallback_iterations"]
    assert np.abs(sol.values - solve_nonlinear(mesh, problem, samples)[0].values).max() < 1e-7


def test_newton_budget_hands_over_to_the_fallback(monkeypatch):
    # MAX_NEWTON is read at each solve: once its steps are spent the damped
    # Riesz iteration goes on from Newton's last iterate
    problem = builtin_problem("magnetostatics_nl")
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    samples = volume_samples(mesh, problem)
    newton, full = solve_nonlinear(mesh, problem, samples)
    assert full["newton_iterations"] > 1 and full["fallback_iterations"] == 0
    monkeypatch.setattr(assembly, "MAX_NEWTON", 1)
    sol, info = solve_nonlinear(mesh, problem, samples)
    assert info["newton_iterations"] == 1
    assert 0 < info["fallback_iterations"] <= assembly.MAX_FALLBACK
    assert info["residuals"][:2] == full["residuals"][:2]
    assert np.abs(sol.values - newton.values).max() < 1e-7


def test_nonlinear_budget_exhaustion_carries_best_residual(monkeypatch):
    problem = builtin_problem("magnetostatics_nl")
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    monkeypatch.setattr(assembly, "MAX_NEWTON", 0)
    monkeypatch.setattr(assembly, "MAX_FALLBACK", 3)
    with pytest.raises(NonlinearSolveError) as err:
        solve_nonlinear(mesh, problem, volume_samples(mesh, problem))
    assert 0.0 < err.value.best_residual < 1.0


def test_nonlinear_jacobian_matches_finite_differences():
    problem = builtin_problem("magnetostatics_nl")
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    samples = volume_samples(mesh, problem)
    rng = np.random.default_rng(0)
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = rng.normal(0.0, 0.3, mesh.interior_vertices.size)
    jac = nonlinear_jacobian(mesh, problem, values).toarray()
    n = mesh.interior_vertices.size
    fd = np.empty((n, n))
    step = 1e-6
    for k, v in enumerate(mesh.interior_vertices):
        up, down = values.copy(), values.copy()
        up[v] += step
        down[v] -= step
        fd[:, k] = (
            nonlinear_residual(mesh, problem, up, samples)
            - nonlinear_residual(mesh, problem, down, samples)
        ) / (2.0 * step)
    assert np.abs(fd - jac).max() / np.abs(jac).max() < 1e-5


def test_energy_products_linear():
    problem = builtin_problem("square_smooth")
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    rng = np.random.default_rng(1)
    w = np.zeros(mesh.n_vertices)
    v = np.zeros(mesh.n_vertices)
    w[mesh.interior_vertices] = rng.normal(size=mesh.interior_vertices.size)
    v[mesh.interior_vertices] = rng.normal(size=mesh.interior_vertices.size)
    ws, vs = DiscreteSolution(mesh, w), DiscreteSolution(mesh, v)
    samples = volume_samples(mesh, problem)
    # one float per paired solution, in their order
    assert energy_products(mesh, problem, ws, [], samples) == []
    zero, dl_sq = energy_products(mesh, problem, ws, [ws, vs], samples)
    assert zero == pytest.approx(0.0, abs=1e-14)
    # for A = I the energy distance is the squared H1 seminorm
    assert dl_sq == pytest.approx(grad_norm_sq(mesh, w - v), rel=1e-12)
    assert energy_products(mesh, problem, ws, [vs], samples) == [dl_sq]


def test_energy_products_mesh_mismatch():
    problem = builtin_problem("square_smooth")
    mesh = problem.make_initial_mesh()
    finer = uniform_refine(mesh, 1)
    a = DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
    b = DiscreteSolution(finer, np.zeros(finer.n_vertices))
    samples = volume_samples(mesh, problem)
    # any paired solution off the mesh is rejected, the first one or a later
    for v_sols in ([b], [a, b]):
        with pytest.raises(ValueError, match="mesh"):
            energy_products(mesh, problem, a, v_sols, samples)
    with pytest.raises(ValueError, match="mesh"):
        energy_products(mesh, problem, b, [a], samples)


@pytest.mark.parametrize("name", ["magnetostatics_nl", "magnetostatics_skew", "square_smooth"])
def test_energy_products_read_coarser_solutions_prolonged_in_one_pass(name):
    # the reference build's reading of the iterates: solutions on a chain of
    # coarser meshes, prolonged in one transfer_many pass, each have the
    # bits of their own transfer, and their energies those of a call for
    # each alone and, for a nonlinear problem, of the per-point oracle; a
    # solution left on its coarser mesh is refused
    problem = skew_flux_problem() if name == "magnetostatics_skew" else builtin_problem(name)
    rng = np.random.default_rng(3)
    meshes = [uniform_refine(problem.make_initial_mesh(), 2)]
    for _ in range(3):
        meshes.append(random_refinement(rng, meshes[-1]))
    mesh = meshes[-1]
    w_sol = random_p1(rng, mesh)
    v_sols = [random_p1(rng, m) for m in meshes]
    samples = volume_samples(mesh, problem)
    moved = transfer_many(v_sols, mesh)
    assert all(np.array_equal(m.values, transfer(v, mesh).values)
               for m, v in zip(moved, v_sols))
    values = energy_products(mesh, problem, w_sol, moved, samples)
    assert values == [energy_products(mesh, problem, w_sol, [m], samples)[0] for m in moved]
    if name != "square_smooth":
        assert values == [energy_per_point(mesh, problem, w_sol.values, m.values)
                          for m in moved]
    for v in v_sols[:-1]:
        with pytest.raises(ValueError, match="mesh"):
            energy_products(mesh, problem, w_sol, [*moved, v], samples)


def test_nonlinear_energy_distance_band():
    # C_mono |grad(w - v)|^2 <= dl^2 <= 2 C_lip |grad(w - v)|^2 on random pairs
    problem = builtin_problem("magnetostatics_nl")
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    samples = volume_samples(mesh, problem)
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = np.zeros(mesh.n_vertices)
        v = np.zeros(mesh.n_vertices)
        w[mesh.interior_vertices] = rng.normal(0.0, 0.5, mesh.interior_vertices.size)
        v[mesh.interior_vertices] = rng.normal(0.0, 0.5, mesh.interior_vertices.size)
        [dl_sq] = energy_products(
            mesh, problem, DiscreteSolution(mesh, w), [DiscreteSolution(mesh, v)], samples
        )
        h1 = grad_norm_sq(mesh, w - v)
        assert problem.monotone_const * h1 - 1e-12 <= dl_sq
        assert dl_sq <= 2.0 * problem.lipschitz_const * h1 + 1e-12


def _with_sine_solution(problem):
    """``problem`` declaring sin(pi x) sin(pi y), the solution of
    magnetostatics, whether or not it solves ``problem``."""
    declared = builtin_problem("magnetostatics_nl")
    return dataclasses.replace(problem, exact_u=declared.exact_u, exact_grad=declared.exact_grad)


DECLARED_PROBLEMS = {
    "square_smooth": lambda: builtin_problem("square_smooth"),
    "lshape_poisson": lambda: builtin_problem("lshape_poisson"),
    # advection and reaction, every coefficient varying in x
    "varying": lambda: _with_sine_solution(varying_linear_problem()),
    "magnetostatics_nl": lambda: builtin_problem("magnetostatics_nl"),
    "magnetostatics_skew": lambda: _with_sine_solution(skew_flux_problem()),
}


@pytest.mark.parametrize("name", sorted(DECLARED_PROBLEMS))
@pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "off-grid"])
def test_exact_energy_error_matches_the_per_point_oracle(name, dyadic):
    # the kernel samples every closure over the whole mesh at once and sums
    # over points, then elements; the oracle calls each at one point and
    # adds one term at a time, so the two agree to rounding only
    problem = DECLARED_PROBLEMS[name]()
    mesh = random_refinement(np.random.default_rng(7), uniform_refine(problem.make_initial_mesh(), 3))
    if not dyadic:
        mesh = helpers_mesh.off_grid(mesh)
    samples = volume_samples(mesh, problem)
    if isinstance(problem, LinearProblem):
        sol = solve_linear(assemble_linear(mesh, samples))
    else:
        sol = solve_nonlinear(mesh, problem, samples)[0]
    error_sq = exact_energy_error(mesh, problem, sol, samples)
    assert error_sq > 0.0
    assert error_sq == pytest.approx(exact_error_per_point(mesh, problem, sol.values), rel=1e-12)


@pytest.mark.parametrize("name, closure", [
    ("square_smooth", "exact_u"), ("square_smooth", "exact_grad"),
    ("magnetostatics_nl", "exact_grad"),
])
def test_exact_energy_error_rejects_a_non_finite_sample(name, closure):
    problem = builtin_problem(name)
    declared = getattr(problem, closure)
    problem = dataclasses.replace(problem, **{closure: lambda x: np.nan * declared(x)})
    mesh = uniform_refine(problem.make_initial_mesh(), 1)
    samples = volume_samples(mesh, problem)
    sol = DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
    with pytest.raises(AssemblyError, match=closure):
        exact_energy_error(mesh, problem, sol, samples)


@pytest.mark.parametrize("name", ["square_smooth", "magnetostatics_nl"])
def test_exact_energy_error_rejects_a_solution_on_another_mesh(name):
    # read by the coarse triangles, a fine solution's values gave a finite
    # error (1.014 for square_smooth) where the kernel must refuse it
    problem = builtin_problem(name)
    coarse = problem.make_initial_mesh()
    fine = uniform_refine(coarse, 2)
    samples = volume_samples(fine, problem)
    if isinstance(problem, LinearProblem):
        sol = solve_linear(assemble_linear(fine, samples))
    else:
        sol = solve_nonlinear(fine, problem, samples)[0]
    with pytest.raises(ValueError, match="^the solution does not live on the given mesh$"):
        exact_energy_error(coarse, problem, sol, volume_samples(coarse, problem))


def test_transfer_is_pointwise_exact():
    problem = builtin_problem("square_smooth")
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    sol = solve_linear(assemble_linear(mesh, volume_samples(mesh, problem)))
    fine = uniform_refine(mesh, 2)
    moved = transfer(sol, fine)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))
    assert np.abs(evaluate(moved, pts) - evaluate(sol, pts)).max() < 1e-14


def test_transfer_zero_and_composition():
    mesh = unit_square_mesh(cross=True)
    zero = DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
    mid = uniform_refine(mesh, 1)
    fine = uniform_refine(mid, 1)
    assert np.all(transfer(zero, fine).values == 0.0)
    rng = np.random.default_rng(4)
    vals = np.zeros(mesh.n_vertices)
    vals[mesh.interior_vertices] = rng.normal(size=mesh.interior_vertices.size)
    sol = DiscreteSolution(mesh, vals)
    direct = transfer(sol, fine)
    stepped = transfer(transfer(sol, mid), fine)
    assert np.array_equal(direct.values, stepped.values)


def test_transfer_rejects_non_finite_values():
    mesh = unit_square_mesh(cross=True)
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        transfer(DiscreteSolution(mesh, values), uniform_refine(mesh, 1))


def test_transfer_rejects_non_refinement():
    base = unit_square_mesh(cross=True)
    m1, _ = refine_nvb(base, [0])
    m2, _ = refine_nvb(base, [1])
    sol = DiscreteSolution(m1, np.zeros(m1.n_vertices))
    with pytest.raises(ValueError, match="refinement"):
        transfer(sol, m2)


def random_refinement(rng, mesh):
    count = rng.integers(1, mesh.n_elements // 3 + 2)
    return refine_nvb(mesh, rng.choice(mesh.n_elements, size=count, replace=False))[0]


def random_p1(rng, mesh):
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = rng.normal(size=mesh.interior_vertices.size)
    return DiscreteSolution(mesh, values)


SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3)


@settings(max_examples=20)
@given(seeds=SEEDS)
def test_transfer_keeps_the_affine_values_on_random_refinements(seeds):
    # a P1 function is affine on every coarse element (the zero boundary
    # values rule out one global affine function); each fine vertex must get
    # the value of that affine function
    mesh_rng, fine_rng, value_rng = (np.random.default_rng(s) for s in seeds)
    coarse = random_refinement(mesh_rng, uniform_refine(lshape_mesh(), 1))
    fine = random_refinement(fine_rng, random_refinement(fine_rng, coarse))
    sol = random_p1(value_rng, coarse)
    assert np.abs(transfer(sol, fine).values - evaluate(sol, fine.vertices)).max() < 1e-14


@settings(max_examples=20)
@given(seeds=SEEDS)
def test_transfer_composes_over_random_refinements(seeds):
    mesh_rng, fine_rng, value_rng = (np.random.default_rng(s) for s in seeds)
    m0 = random_refinement(mesh_rng, lshape_mesh())
    m1 = random_refinement(fine_rng, m0)
    m2 = random_refinement(fine_rng, m1)
    sol = random_p1(value_rng, m0)
    assert np.array_equal(transfer(transfer(sol, m1), m2).values, transfer(sol, m2).values)


@settings(max_examples=20)
@given(seeds=SEEDS)
def test_transfer_many_gives_each_solution_the_bits_of_its_own_pass(seeds):
    # the iterates of a run, on a chain of meshes, prolonged in one pass;
    # each column must hold what a vertex-by-vertex prolongation of its
    # solution alone gives, bit for bit
    mesh_rng, fine_rng, value_rng = (np.random.default_rng(s) for s in seeds)
    meshes = [random_refinement(mesh_rng, lshape_mesh())]
    for _ in range(3):
        meshes.append(random_refinement(fine_rng, meshes[-1]))
    fine = uniform_refine(meshes[-1], 1)
    solutions = [random_p1(value_rng, m) for m in meshes] + [random_p1(value_rng, fine)]
    moved = transfer_many(solutions, fine)
    assert len(moved) == len(solutions)
    for sol, got in zip(solutions, moved):
        assert got.mesh is fine
        expected = helpers_mesh.prolong_per_vertex(sol, fine)
        assert np.array_equal(got.values, expected)
        assert np.array_equal(transfer(sol, fine).values, expected)


@settings(max_examples=20)
@given(seeds=SEEDS)
def test_transfer_rejects_random_siblings_that_are_not_nested(seeds):
    base_rng, sibling_rng, value_rng = (np.random.default_rng(s) for s in seeds)
    base = random_refinement(base_rng, unit_square_mesh(cross=True))
    m1 = random_refinement(sibling_rng, base)
    m2 = random_refinement(sibling_rng, base)
    nested = len(helpers_mesh.covered(m2.node_ids, set(m1.node_ids.tolist()), m2.forest))
    assume(nested < m2.n_elements)
    with pytest.raises(ValueError, match="refinement"):
        transfer(random_p1(value_rng, m1), m2)
    # one solution that is not nested spoils the whole pass
    nested_sol = random_p1(value_rng, base)
    with pytest.raises(ValueError, match="refinement"):
        transfer_many([nested_sol, random_p1(value_rng, m1)], m2)
    assert len(transfer_many([nested_sol], m2)) == 1


def test_transfer_of_no_solutions_is_empty():
    assert transfer_many([], uniform_refine(unit_square_mesh(cross=True), 1)) == []


def test_galerkin_orthogonality_against_reference():
    # f = 1 keeps all quadratures exact, so the discrete orthogonality
    # b(u_ref - U, phi_coarse) = 0 holds to solver precision
    problem = builtin_problem("convection_diffusion")
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    sol = solve_linear(assemble_linear(mesh, volume_samples(mesh, problem)))
    ref_mesh = uniform_refine(mesh, 3)
    ref_matrix, _ = assemble_operator(ref_mesh, problem)
    ref_sol = solve_linear(assemble_linear(ref_mesh, volume_samples(ref_mesh, problem)))
    err = ref_sol.values - transfer(sol, ref_mesh).values
    functional = restrict_functional(ref_mesh, mesh, ref_matrix @ err)
    f_norm = l2_norm(ref_mesh, problem.source)
    assert np.abs(functional[~mesh.is_boundary_vertex]).max() <= 1e-8 * f_norm


# continuity constants M of the bilinear forms on the unit square, where
# the Friedrichs constant is c = sqrt(2) / pi: M = 1 + c |b| + c^2 for the
# convection-diffusion form with b = (3, 2.5) and reaction 1
_FRIEDRICHS = np.sqrt(2.0) / np.pi
CONTINUITY = {
    "convection_diffusion": 1.0 + _FRIEDRICHS * float(np.hypot(3.0, 2.5)) + _FRIEDRICHS**2,
    "square_smooth": 1.0,
}


@pytest.mark.parametrize("name,cea_slack", [
    ("convection_diffusion", 1.0),
    ("square_smooth", 1.05),
])
def test_cea_bound_with_nodal_interpolant(name, cea_slack):
    problem = builtin_problem(name)
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    sol = solve_linear(assemble_linear(mesh, volume_samples(mesh, problem)))
    ref_mesh = uniform_refine(mesh, 2)
    ref_sol = solve_linear(assemble_linear(ref_mesh, volume_samples(ref_mesh, problem)))
    moved = transfer(sol, ref_mesh)
    galerkin_err = np.sqrt(grad_norm_sq(ref_mesh, ref_sol.values - moved.values))

    # candidate interpolants: the nodal interpolant of u_ref plus random
    # interior perturbations of it
    idx = np.searchsorted(ref_mesh.vertex_gids, mesh.vertex_gids)
    nodal = np.zeros(mesh.n_vertices)
    nodal[:] = ref_sol.values[idx]
    nodal[mesh.is_boundary_vertex] = 0.0
    rng = np.random.default_rng(5)
    candidate_errors = []
    for k in range(20):
        cand = nodal.copy()
        if k:
            cand[mesh.interior_vertices] += rng.normal(
                0.0, 0.1 * np.abs(nodal).max(), mesh.interior_vertices.size
            )
        moved_cand = transfer(DiscreteSolution(mesh, cand), ref_mesh)
        candidate_errors.append(
            np.sqrt(grad_norm_sq(ref_mesh, ref_sol.values - moved_cand.values))
        )
    cea_const = CONTINUITY[name] / problem.ellipticity_const
    nodal_err = candidate_errors[0]
    assert galerkin_err <= cea_slack * cea_const * nodal_err
    assert galerkin_err <= cea_slack * cea_const * min(candidate_errors)


def test_residual_error_equivalence_across_levels():
    # dual-norm residual surrogate vs exact H1 error on 4 uniform levels
    problem = builtin_problem("magnetostatics_nl")
    ratios = []
    for levels in (2, 4, 6, 8):
        mesh = uniform_refine(problem.make_initial_mesh(), levels)
        sol, _ = solve_nonlinear(mesh, problem, volume_samples(mesh, problem))
        fine = uniform_refine(mesh, 1)
        moved = transfer(sol, fine)
        residual = nonlinear_residual(fine, problem, moved.values, volume_samples(fine, problem))
        import scipy.sparse.linalg as spla

        dual = float(np.sqrt(residual @ spla.spsolve(laplace_stiffness(fine).tocsc(), residual)))
        h1 = np.sqrt(h1_error_sq(mesh, sol.values, problem.exact_grad))
        ratios.append(dual / h1)
    assert max(ratios) / min(ratios) < 10.0


def test_element_gradients_of_linear_function():
    mesh = uniform_refine(unit_square_mesh(cross=True), 2)
    values = 2.0 * mesh.vertices[:, 0] - 3.0 * mesh.vertices[:, 1]
    grads = element_gradients(mesh, values)
    assert np.abs(grads - np.array([2.0, -3.0])).max() < 1e-12


def test_boundary_values_must_be_zero():
    mesh = unit_square_mesh(cross=True)
    bad = np.ones(mesh.n_vertices)
    with pytest.raises(ValueError, match="boundary"):
        DiscreteSolution(mesh, bad)


@pytest.mark.parametrize("extra", [-1, 1])
def test_solution_length_must_match_the_vertex_count(extra):
    mesh = unit_square_mesh(cross=True)
    with pytest.raises(ValueError, match="^solution length does not match the mesh vertex count$"):
        DiscreteSolution(mesh, np.zeros(mesh.n_vertices + extra))


def _graded_mesh(problem, steps=4, seed=5):
    """Random adaptive refinements: elements of many sizes and shapes."""
    rng = np.random.default_rng(seed)
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    for _ in range(steps):
        marked = rng.choice(mesh.n_elements, size=mesh.n_elements // 3, replace=False)
        mesh, _ = refine_nvb(mesh, marked)
    return mesh


def _assert_close_in_max_norm(actual, expected, rel=1e-13):
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


def test_contracted_element_system_matches_per_point_oracle():
    problem = varying_linear_problem()
    mesh = _graded_mesh(problem)
    samples = volume_samples(mesh, problem)
    local = samples.local
    rhs = np.bincount(
        mesh.triangles.ravel(), weights=samples.load.ravel(), minlength=mesh.n_vertices)
    oracle_local, oracle_rhs = element_system_per_point(mesh, problem)
    _assert_close_in_max_norm(local, oracle_local)
    _assert_close_in_max_norm(rhs, oracle_rhs)
    # the oracle's advection block is not symmetric, so the orientation is tested
    assert np.abs(oracle_local - oracle_local.transpose(0, 2, 1)).max() > 1e-3


def test_contracted_jacobian_matches_per_point_oracle():
    problem = skew_flux_problem()
    mesh = _graded_mesh(problem)
    rng = np.random.default_rng(8)
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = rng.normal(0.0, 0.7, mesh.interior_vertices.size)
    jac = nonlinear_jacobian(mesh, problem, values).toarray()
    oracle = _scatter(mesh, jacobian_per_point(mesh, problem, values)).toarray()
    _assert_close_in_max_norm(jac, oracle)
    assert np.abs(oracle - oracle.T).max() > 1e-3


def _random_p1(mesh, seed):
    values = np.zeros(mesh.n_vertices)
    rng = np.random.default_rng(seed)
    values[mesh.interior_vertices] = rng.normal(0.0, 0.7, mesh.interior_vertices.size)
    return values


@pytest.mark.parametrize("make_problem", [
    lambda: builtin_problem("magnetostatics_nl"), skew_flux_problem,
], ids=["magnetostatics_nl", "magnetostatics_skew"])
@pytest.mark.parametrize("make_mesh", [
    lambda: uniform_refine(unit_square_mesh(cross=True), 3),
    lambda: _graded_mesh(builtin_problem("magnetostatics_nl")),
    lambda: uniform_refine(lshape_mesh(), 3),
    lambda: helpers_mesh.off_grid(_graded_mesh(builtin_problem("magnetostatics_nl"))),
], ids=["cross-uniform", "cross-graded", "lshape", "graded-off-grid"])
def test_nonlinear_kernels_match_per_point_oracles_bit_for_bit(make_problem, make_mesh):
    # the flux is evaluated once per element, and the residual and Jacobian
    # read it without copies to the points; the estimator reads it from the
    # same call; every sum must keep the per-point (or per-edge) operands
    # and order of the einsum oracles exactly. On the dyadic meshes every
    # basis gradient is a power of two, so a product with it is exact in
    # any association; the last mesh is moved off that grid
    problem = make_problem()
    mesh = make_mesh()
    w_values = _random_p1(mesh, 3)

    samples = volume_samples(mesh, problem)
    assert np.array_equal(nonlinear_residual(mesh, problem, w_values, samples),
                          residual_per_point(mesh, problem, w_values))
    jac = nonlinear_jacobian(mesh, problem, w_values)
    oracle = _scatter(mesh, contracted_jacobian_per_point(mesh, problem, w_values))
    assert np.array_equal(jac.indptr, oracle.indptr)
    assert np.array_equal(jac.indices, oracle.indices)
    assert np.array_equal(jac.data, oracle.data)

    grad_u, flux = flux_terms(mesh, problem, w_values)
    oracle_grad, y_q = gradients_per_point(mesh, w_values)
    assert np.array_equal(grad_u, oracle_grad)
    assert flux.shape == (mesh.n_elements, 2)
    per_point = np.repeat(flux, y_q.shape[0] // mesh.n_elements, axis=0)
    assert np.array_equal(per_point, problem.flux(y_q))

    # one energy's last bits seldom show a change of summation order, so
    # one solution is paired with several, as a run pairs its reference
    # solution with every iterate: in one call and one call each
    w_sol = DiscreteSolution(mesh, w_values)
    v_sols = [DiscreteSolution(mesh, _random_p1(mesh, seed)) for seed in range(4, 12)]
    expected = [energy_per_point(mesh, problem, w_values, v.values) for v in v_sols]
    assert energy_products(mesh, problem, w_sol, v_sols, samples) == expected
    assert [energy_products(mesh, problem, w_sol, [v], samples)[0] for v in v_sols] == expected

    report = estimate(mesh, w_sol, problem, samples)
    indicators_sq, osc_sq = nonlinear_estimate_at_centroids(mesh, problem, w_values, samples)
    assert np.array_equal(report.indicators_sq, indicators_sq)
    assert np.array_equal(report.osc_sq, osc_sq)


NEWTON_PROBLEMS = {
    "magnetostatics_nl": lambda: builtin_problem("magnetostatics_nl"),
    "magnetostatics_skew": skew_flux_problem,
}


@pytest.mark.parametrize("name", sorted(NEWTON_PROBLEMS))
@pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "off-grid"])
@settings(max_examples=30)
@given(seeds=SEEDS)
def test_newton_factor_solves_near_spsolve(name, dyadic, seeds):
    # Newton factors its Jacobians as a linear system is, in the mesh's
    # interior order; each step must agree with spsolve's (COLAMD) to 1e-12
    # relative, also among the equal entries of a mirror-symmetric dyadic mesh
    mesh_rng, first_rng, later_rng = (np.random.default_rng(s) for s in seeds)
    problem = NEWTON_PROBLEMS[name]()
    mesh = uniform_refine(problem.make_initial_mesh(), 4)
    mesh = random_refinement(mesh_rng, random_refinement(mesh_rng, mesh))
    if not dyadic:
        mesh = helpers_mesh.off_grid(mesh)
    samples = volume_samples(mesh, problem)
    for rng in (first_rng, later_rng):
        values = random_p1(rng, mesh).values
        jac = nonlinear_jacobian(mesh, problem, values)
        rhs = nonlinear_residual(mesh, problem, values, samples)
        expected = spla.spsolve(jac.tocsc(), rhs)
        step = _symmetric_factor(jac)(rhs)
        assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()


def _assert_same_matrix(matrix, expected):
    assert matrix.format == expected.format == "csc"
    assert matrix.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, name), getattr(expected, name)), name


PATTERN_MESHES = {
    "cross-uniform": lambda: uniform_refine(unit_square_mesh(cross=True), 3),
    "cross-graded": lambda: _graded_mesh(builtin_problem("magnetostatics_nl")),
    "graded-off-grid": lambda: helpers_mesh.off_grid(
        _graded_mesh(builtin_problem("magnetostatics_nl"))),
    # two triangles, every vertex on the boundary: an empty interior block
    "no-interior": unit_square_mesh,
}


@pytest.mark.parametrize("name", sorted(NEWTON_PROBLEMS))
@pytest.mark.parametrize("mesh_name", sorted(PATTERN_MESHES))
def test_sparse_pattern_keeps_the_bits_of_the_scatter_chain(name, mesh_name):
    # scipy's sum_duplicates rewrites the structure it is given in place,
    # so one pattern must give the chain's bits on every later call too,
    # with other values each time; a Jacobian without a pattern builds its
    # own
    problem = NEWTON_PROBLEMS[name]()
    mesh = PATTERN_MESHES[mesh_name]()
    pattern = SparsePattern(mesh)
    for seed in range(5):
        values = _random_p1(mesh, seed)
        expected = scatter_oracle(mesh, contracted_jacobian_per_point(mesh, problem, values))
        _assert_same_matrix(nonlinear_jacobian(mesh, problem, values, pattern), expected)
        _assert_same_matrix(nonlinear_jacobian(mesh, problem, values), expected)
    if mesh_name == "no-interior":
        assert expected.shape == (0, 0)
    # entries of magnitudes 1e-160 to 1e160 show any other order of a sum
    rng = np.random.default_rng(2)
    for _ in range(3):
        local = wide_magnitudes(rng, (mesh.n_elements, 3, 3))
        _assert_same_matrix(pattern.matrix(mesh, local), scatter_oracle(mesh, local))


@pytest.mark.parametrize("name", sorted(NEWTON_PROBLEMS))
@pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "off-grid"])
def test_newton_jacobians_keep_the_bits_of_the_scatter_chain(monkeypatch, name, dyadic):
    # one solve: every Jacobian is summed by one pattern of the mesh, each
    # with the chain's bits
    problem = NEWTON_PROBLEMS[name]()
    mesh = _graded_mesh(problem)
    if not dyadic:
        mesh = helpers_mesh.off_grid(mesh)
    calls = []
    jacobian = assembly.nonlinear_jacobian

    def recorded(mesh, problem, values, pattern=None):
        matrix = jacobian(mesh, problem, values, pattern)
        calls.append((values.copy(), pattern, matrix))
        return matrix

    monkeypatch.setattr(assembly, "nonlinear_jacobian", recorded)
    solve_nonlinear(mesh, problem, volume_samples(mesh, problem))
    assert len(calls) >= 4
    patterns = [pattern for _, pattern, _ in calls]
    assert patterns[0] is not None
    assert all(pattern is patterns[0] for pattern in patterns)
    for values, _, matrix in calls:
        expected = scatter_oracle(mesh, contracted_jacobian_per_point(mesh, problem, values))
        _assert_same_matrix(matrix, expected)


def test_sparse_pattern_refuses_another_mesh():
    problem = builtin_problem("magnetostatics_nl")
    mesh = _graded_mesh(problem)
    pattern = SparsePattern(mesh)
    # the same elements in another order, and another mesh of the forest
    ids = mesh.node_ids.copy()
    ids[[0, 1]] = ids[[1, 0]]
    for other in (Mesh(mesh.forest, ids), refine_nvb(mesh, [0])[0]):
        with pytest.raises(ValueError, match="another mesh"):
            nonlinear_jacobian(other, problem, _random_p1(other, 1), pattern)
    with pytest.raises(ValueError, match="element matrices"):
        pattern.matrix(mesh, np.zeros((mesh.n_elements - 1, 3, 3)))


def test_every_factor_takes_the_symmetric_order(monkeypatch):
    # the loop's Newton steps and the damped-Riesz fallback both factor
    # through _symmetric_factor
    factors = _factors(monkeypatch)
    problem = builtin_problem("magnetostatics_nl")
    result = driver.run_afem(problem, 0.5, max_elements=300, compute_reference=True)
    newton = len(factors)
    assert newton > len(result.trace)
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    monkeypatch.setattr(assembly, "MAX_NEWTON", 0)
    _, info = solve_nonlinear(mesh, problem, volume_samples(mesh, problem))
    assert info["newton_iterations"] == 0 and info["fallback_iterations"] > 0
    assert len(factors) == newton + 1
    assert {spec for _, spec in factors} == {"MMD_AT_PLUS_A"}


def test_the_factor_takes_the_system_as_assembled(monkeypatch):
    # the mesh numbers the unknowns in the factor's order, so SuperLU gets
    # the CSC form of the assembled matrix itself: no permuted copy, for a
    # linear solve and for a Newton step
    factors = _factors(monkeypatch)
    linear = builtin_problem("lshape_poisson")
    mesh = random_refinement(np.random.default_rng(5), uniform_refine(linear.make_initial_mesh(), 4))
    system = assemble_linear(mesh, volume_samples(mesh, linear))
    solve_linear(system)
    problem = builtin_problem("magnetostatics_nl")
    mesh = random_refinement(np.random.default_rng(6), uniform_refine(problem.make_initial_mesh(), 3))
    solve_nonlinear(mesh, problem, volume_samples(mesh, problem))
    newton = nonlinear_jacobian(mesh, problem, np.zeros(mesh.n_vertices))
    assert len(factors) > 2
    for (factored, _), matrix in zip(factors, (system.matrix, newton)):
        expected = matrix.tocsc()
        assert factored.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(factored, name), getattr(expected, name)), name


@pytest.mark.parametrize("name", ["convection_diffusion", "lshape_poisson", "square_smooth"])
@pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "off-grid"])
def test_linear_solve_keeps_the_bits_of_the_presorted_vertex_numbering(name, dyadic):
    # the interior order moved from around the factor into the mesh; the
    # solution keeps every bit
    problem = builtin_problem(name)
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    for seed in range(3):
        mesh = random_refinement(np.random.default_rng(seed), mesh)
    if not dyadic:
        mesh = helpers_mesh.off_grid(mesh)
    sol = solve_linear(assemble_linear(mesh, volume_samples(mesh, problem)))
    assert np.array_equal(sol.values, presorted_solve(mesh, problem))


@pytest.mark.parametrize("name", sorted(NEWTON_PROBLEMS))
def test_reference_energies_keep_the_bits_of_one_call_per_iterate(monkeypatch, name):
    # the reference build pairs the reference solution with every iterate
    # in one call, which takes the reference side once, its quadrature
    # weights included; each energy must have the bits of a call for that
    # iterate alone, and of the per-point oracle. Off the dyadic grid, where
    # areas are not powers of two and so the association of the weights
    # shows in the last bits. The problem's declared solution is dropped, so
    # that the run measures its errors against the reference
    calls = []
    energy = driver.energy_products

    def recorded(mesh, problem, w_sol, v_sols, samples):
        values = energy(mesh, problem, w_sol, v_sols, samples)
        per_call = [energy(mesh, problem, w_sol, [v], samples)[0] for v in v_sols]
        calls.append((values, per_call, [energy_per_point(mesh, problem, w_sol.values, v.values)
                                         for v in v_sols]))
        return values

    monkeypatch.setattr(driver, "energy_products", recorded)
    problem = without_solution(NEWTON_PROBLEMS[name]())
    result = driver.run_afem(problem, 0.5, max_elements=300, compute_reference=True,
                             initial_mesh=helpers_mesh.off_grid(problem.make_initial_mesh()))
    # one call per increment of the loop, then one for the reference
    assert [len(values) for values, _, _ in calls] == [1] * (len(result.trace) - 1) + [
        len(result.trace)]
    assert all(values == per_call == oracle for values, per_call, oracle in calls)
    assert np.array_equal(result.trace.err_energy_sq, [max(0.0, v) for v in calls[-1][0]])


@pytest.fixture(scope="module")
def reference_setting():
    # the reference solve of a short magnetostatics run: its mesh and guess
    problem = builtin_problem("magnetostatics_nl")
    result = driver.run_afem(problem, 0.5, max_elements=300, keep_history=False)
    mesh = uniform_refine(result.final_solution.mesh, driver.REFERENCE_LEVELS)
    return problem, mesh, transfer(result.final_solution, mesh)


def _factors(monkeypatch):
    """The matrix and ``permc_spec`` of every SuperLU factor made from here on."""
    factors = []
    splu = spla.splu

    def counted_splu(matrix, permc_spec=None, **kwargs):
        factors.append((matrix, permc_spec))
        return splu(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", counted_splu)
    return factors


def _meets_the_contract(mesh, problem, sol):
    samples = volume_samples(mesh, problem)
    zero = nonlinear_residual(mesh, problem, np.zeros(mesh.n_vertices), samples)
    residual = nonlinear_residual(mesh, problem, sol.values, samples)
    return np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(zero)


def test_reference_solve_meets_the_contract(monkeypatch, reference_setting):
    # the reference solve is the loop's: full Newton from the prolonged
    # final iterate, one factor in the symmetric order per step and no
    # fallback
    problem, mesh, guess = reference_setting
    samples = volume_samples(mesh, problem)
    newton, info = solve_nonlinear(mesh, problem, samples, guess)
    factors = _factors(monkeypatch)
    reference = driver._solve_on(mesh, problem, samples, guess)
    assert len(factors) == info["newton_iterations"] > 1
    assert {spec for _, spec in factors} == {"MMD_AT_PLUS_A"}
    assert info["fallback_iterations"] == 0
    assert np.array_equal(reference.values, newton.values)
    assert _meets_the_contract(mesh, problem, reference)


def test_every_newton_step_factors_a_fresh_jacobian(monkeypatch, reference_setting):
    # a first Jacobian four times too large gives steps a quarter of
    # Newton's; no factor is kept, so every later step builds and factors
    # a Jacobian of its own and Newton still meets the contract
    problem, mesh, guess = reference_setting
    calls = []

    def poor_first(y):
        calls.append(y.shape)
        jac = problem.flux_jacobian(y)
        return 4.0 * jac if len(calls) == 1 else jac

    poor = dataclasses.replace(problem, flux_jacobian=poor_first)
    factors = _factors(monkeypatch)
    sol, info = solve_nonlinear(mesh, poor, volume_samples(mesh, poor), guess)
    assert len(calls) == len(factors) == info["newton_iterations"] >= 2
    assert info["fallback_iterations"] == 0
    assert _meets_the_contract(mesh, problem, sol)


def _same_as_two_blocks(mesh, make_problem, guess):
    """``solve_nonlinear`` gives the values, bit for bit, and the info of
    the two-block oracle; ``make_problem()`` gives a fresh problem per solve."""
    problem = make_problem()
    sol, info = solve_nonlinear(mesh, problem, volume_samples(mesh, problem), guess)
    values, expected = two_block_newton(mesh, make_problem(), guess)
    assert np.array_equal(sol.values, values)
    assert info == expected
    return info


@pytest.mark.parametrize("name", sorted(NEWTON_PROBLEMS))
def test_newton_keeps_the_bits_of_the_two_block_loop(name):
    # every iterate and count must be those of the loop as first written,
    # from zero, from the prolonged solution of a coarser mesh and from a
    # far guess, off the dyadic grid
    problem = NEWTON_PROBLEMS[name]()
    coarse = helpers_mesh.off_grid(random_refinement(
        np.random.default_rng(8), uniform_refine(problem.make_initial_mesh(), 4)))
    mesh = random_refinement(np.random.default_rng(9), coarse)
    coarse_sol, _ = solve_nonlinear(coarse, problem, volume_samples(coarse, problem))
    guesses = (None, transfer(coarse_sol, mesh),
               DiscreteSolution(mesh, 10.0 * _random_p1(mesh, 10)))
    for guess in guesses:
        info = _same_as_two_blocks(mesh, lambda: problem, guess)
        assert info["newton_iterations"] > 1 and info["fallback_iterations"] == 0


@pytest.mark.parametrize("scale", [4.0, 0.25, -1.0], ids=["short", "damped", "ascent"])
def test_poor_first_factor_keeps_the_bits_of_the_two_block_loop(reference_setting, scale):
    # the first Jacobian scaled: its steps are a quarter of Newton's; four
    # times Newton's, which the line search halves; or uphill, so that no
    # step is taken and the fallback takes over
    problem, mesh, guess = reference_setting

    def make_poor():
        calls = []

        def poor_first(y):
            calls.append(y.shape)
            jac = problem.flux_jacobian(y)
            return scale * jac if len(calls) == 1 else jac

        return dataclasses.replace(problem, flux_jacobian=poor_first)

    info = _same_as_two_blocks(mesh, make_poor, guess)
    assert (info["fallback_iterations"] > 0) == (scale < 0.0)


def test_zero_residual_leaves_zero_from_the_one_exit():
    # F(0) = 0, from a zero source or because nothing is unknown, returns
    # zero and an empty residual record, whatever the guess
    from triafem.mesh import load_initial_mesh

    problem = builtin_problem("magnetostatics_nl")
    unforced = dataclasses.replace(problem, source=lambda x: np.zeros(x.shape[0]))
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    single = load_initial_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    cases = [(mesh, unforced, DiscreteSolution(mesh, _random_p1(mesh, 3))),
             (mesh, unforced, None), (single, problem, None)]
    for case_mesh, case_problem, guess in cases:
        info = _same_as_two_blocks(case_mesh, lambda: case_problem, guess)
        assert info == {"newton_iterations": 0, "fallback_iterations": 0, "residuals": []}


@pytest.mark.parametrize("mesh_name", ["cross-uniform", "lshape"])
def test_offset_flux_without_a_load_returns_zero_at_once(mesh_name):
    # F(y) = y + c with no source is solved by U = 0, yet its residual there
    # is rounding noise, ~1e-16, not zero; scaled by itself, the 1e-10
    # target could not be met and the solve ran out of budget. The load,
    # exactly zero, is the scale, and zero comes back with no step
    offset = np.array([0.3, -1.7])
    problem = NonlinearProblem(
        name="offset", flux=lambda y: y + offset,
        flux_jacobian=lambda y: np.broadcast_to(np.eye(2), (y.shape[0], 2, 2)),
        source=lambda x: np.zeros(x.shape[0]), lipschitz_const=1.0, monotone_const=1.0)
    mesh = (uniform_refine(unit_square_mesh(cross=True), 3) if mesh_name == "cross-uniform"
            else uniform_refine(lshape_mesh(), 2))
    zero = np.zeros(mesh.n_vertices)
    samples = volume_samples(mesh, problem)
    assert 0.0 < np.linalg.norm(nonlinear_residual(mesh, problem, zero, samples)) < 1e-15
    sol, info = solve_nonlinear(mesh, problem, samples)
    assert np.array_equal(sol.values, zero)
    assert info == {"newton_iterations": 0, "fallback_iterations": 0, "residuals": []}


@pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "off-grid"])
@pytest.mark.parametrize("name", sorted(NEWTON_PROBLEMS))
def test_newton_scale_is_the_load_and_costs_no_residual(monkeypatch, name, dyadic):
    # the flux of zero is zero for these problems, so the residual at zero
    # is the negated load, summed in the same order: with no step allowed, the best
    # residual relative to the load is exactly 1, which a quotient of two
    # floats is only when they are equal. The solve reads the load from
    # its samples and evaluates the residual once fewer than the two-block
    # oracle, which still evaluates it at zero, with the same iterates
    problem = NEWTON_PROBLEMS[name]()
    mesh = random_refinement(np.random.default_rng(4), uniform_refine(problem.make_initial_mesh(), 3))
    if not dyadic:
        mesh = helpers_mesh.off_grid(mesh)
    samples = volume_samples(mesh, problem)
    with monkeypatch.context() as budget:
        budget.setattr(assembly, "MAX_NEWTON", 0)
        budget.setattr(assembly, "MAX_FALLBACK", 0)
        with pytest.raises(NonlinearSolveError) as err:
            solve_nonlinear(mesh, problem, samples)
    assert err.value.best_residual == 1.0

    calls = []

    def counted(fn):
        def residual(*args):
            calls.append(args)
            return fn(*args)

        return residual

    monkeypatch.setattr(assembly, "nonlinear_residual", counted(assembly.nonlinear_residual))
    monkeypatch.setattr(helpers_fem, "nonlinear_residual", counted(helpers_fem.nonlinear_residual))
    guess = DiscreteSolution(mesh, _random_p1(mesh, 6))
    for initial in (None, guess):
        del calls[:]
        sol, info = solve_nonlinear(mesh, problem, samples, initial)
        solve_calls = len(calls)
        values, expected = two_block_newton(mesh, problem, initial)
        oracle_calls = len(calls) - solve_calls
        assert np.array_equal(sol.values, values)
        assert info == expected and info["newton_iterations"] > 1
        assert solve_calls == oracle_calls - 1


def _galerkin(mesh, problem, values):
    nonlinear_residual(mesh, problem, values, volume_samples(mesh, problem))
    nonlinear_jacobian(mesh, problem, values)


def _estimate(mesh, problem, values):
    estimate(mesh, DiscreteSolution(mesh, values), problem, volume_samples(mesh, problem))


@pytest.mark.parametrize("kernel,closures", [
    (_galerkin, ("flux", "flux_jacobian")),
    (_estimate, ("flux",)),
], ids=["magnetostatics_nl", "magnetostatics_nl-estimate"])
def test_gradient_only_flux_is_called_once_per_element(kernel, closures):
    shapes = {"flux": [], "flux_jacobian": []}

    def counted(name, fn):
        def wrapper(y):
            shapes[name].append(y.shape)
            return fn(y)

        return wrapper

    problem = builtin_problem("magnetostatics_nl")
    problem = dataclasses.replace(
        problem, **{name: counted(name, getattr(problem, name)) for name in shapes})
    mesh = _graded_mesh(problem)
    values = _random_p1(mesh, 5)
    kernel(mesh, problem, values)
    expected = [(mesh.n_elements, 2)]
    assert shapes == {name: expected if name in closures else [] for name in shapes}


@pytest.mark.parametrize(
    "kernel", ["nonlinear_residual", "nonlinear_jacobian", "estimate", "energy_products"])
def test_non_finite_flux_is_rejected(kernel):
    # a flux (the Jacobian's flux Jacobian) that returns NaN on the elements
    # whose gradient points in +x stops the kernel with an error naming it
    closure = "flux_jacobian" if kernel == "nonlinear_jacobian" else "flux"
    problem = builtin_problem("magnetostatics_nl")
    clean = getattr(problem, closure)

    def broken(y):
        values = clean(y)
        nan_rows = (y[:, 0] > 0.0).reshape(-1, *[1] * (values.ndim - 1))
        return np.where(nan_rows, np.nan, values)

    problem = dataclasses.replace(problem, **{closure: broken})
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = 1.0
    w_sol, v_sol = DiscreteSolution(mesh, values), DiscreteSolution(mesh, 0.5 * values)
    samples = volume_samples(mesh, problem)
    calls = {
        "nonlinear_residual": lambda: nonlinear_residual(mesh, problem, values, samples),
        "nonlinear_jacobian": lambda: nonlinear_jacobian(mesh, problem, values),
        "estimate": lambda: estimate(mesh, w_sol, problem, samples),
        "energy_products": lambda: energy_products(mesh, problem, w_sol, [v_sol], samples),
    }
    with pytest.raises(AssemblyError, match=f"coefficient '{closure}'"):
        calls[kernel]()


CARRY_PROBLEMS = {
    "lshape_poisson": lambda: builtin_problem("lshape_poisson"),
    "convection_diffusion": lambda: builtin_problem("convection_diffusion"),
    "varying": varying_linear_problem,
    "magnetostatics_nl": lambda: builtin_problem("magnetostatics_nl"),
}


@pytest.mark.parametrize("name", sorted(CARRY_PROBLEMS))
@settings(max_examples=10, derandomize=True)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=4),
       all_marked_step=st.integers(0, 3))
def test_carried_samples_equal_fresh_ones(name, seeds, all_marked_step):
    # the kept rows come from the coarse mesh, the new ones are sampled on
    # their own batch; both must hold the bits of one call on the whole mesh
    problem = CARRY_PROBLEMS[name]()
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    samples = volume_samples(mesh, problem)
    for step, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if step == all_marked_step:
            marked = np.arange(mesh.n_elements)
        else:
            count = rng.integers(1, mesh.n_elements // 4 + 2)
            marked = rng.choice(mesh.n_elements, size=count, replace=False)
        refined, record = refine_nvb(mesh, marked)
        samples = volume_samples(refined, problem, (mesh, samples, record))
        fresh = volume_samples(refined, problem)
        for field in dataclasses.fields(fresh):
            carried, expected = getattr(samples, field.name), getattr(fresh, field.name)
            if expected is None:
                assert carried is None, field.name
            else:
                assert np.array_equal(carried, expected), field.name
        assert (samples.local is None) == (name == "magnetostatics_nl")
        assert (samples.source_moments is None) == (name != "magnetostatics_nl")
        mesh = refined


def test_carry_rejects_permuted_kept_rows():
    problem = builtin_problem("lshape_poisson")
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    samples = volume_samples(mesh, problem)
    refined, record = refine_nvb(mesh, [0])
    assert record.kept.size >= 2
    volume_samples(refined, problem, (mesh, samples, record))
    ids = refined.node_ids.copy()
    ids[[0, 1]] = ids[[1, 0]]
    with pytest.raises(ValueError, match="kept elements"):
        volume_samples(Mesh(refined.forest, ids), problem, (mesh, samples, record))

