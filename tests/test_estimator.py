import dataclasses

import numpy as np
import pytest
from helpers_fem import (
    h1_error_sq,
    linear_jump_terms_einsum,
    nonlinear_jump_terms_sum,
    varying_linear_problem,
    wide_magnitudes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from triafem.assembly import (
    DiscreteSolution,
    assemble_linear,
    solve_linear,
    solve_nonlinear,
    volume_samples,
)
from triafem.driver import AfemRunError, run_afem
from triafem.estimator import (
    EstimatorError,
    EstimatorReport,
    _jump_terms,
    estimate,
)
from triafem.mesh import load_initial_mesh, refine_nvb, uniform_refine, unit_square_mesh
from triafem.problems import LinearProblem, builtin_problem
from triafem.problems import _constant_matrix, _constant_scalar


def poisson(source):
    return LinearProblem(
        name="poisson", diffusion=_constant_matrix(np.eye(2)), source=source,
        ellipticity_const=1.0,
    )


def test_zero_data_zero_indicators():
    mesh = uniform_refine(unit_square_mesh(cross=True), 2)
    sol = DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
    problem = poisson(_constant_scalar(0.0))
    report = estimate(mesh, sol, problem, volume_samples(mesh, problem))
    assert np.all(report.indicators_sq == 0.0)
    assert report.eta_sq_total == 0.0
    assert report.osc_sq_total == 0.0


def test_hand_computed_jump_indicator():
    # 2-triangle square bisected at the diagonal; U is the hat at the new
    # centre vertex. Every interior edge has |grad U| jump of size 2*sqrt(2)
    # normal to it, every triangle carries two such edges:
    #   indicator(T)^2 = sqrt(1/4) * 2 * (sqrt(2)/2 * 8) = 4*sqrt(2)
    mesh, _ = refine_nvb(unit_square_mesh(), [0])
    assert mesh.n_elements == 4
    centre = int(np.nonzero(~mesh.is_boundary_vertex)[0][0])
    values = np.zeros(mesh.n_vertices)
    values[centre] = 1.0
    sol = DiscreteSolution(mesh, values)
    problem = poisson(_constant_scalar(0.0))
    report = estimate(mesh, sol, problem, volume_samples(mesh, problem))
    assert report.indicators_sq == pytest.approx(np.full(4, 4.0 * np.sqrt(2.0)), rel=1e-12)
    assert report.eta_sq_total == pytest.approx(16.0 * np.sqrt(2.0), rel=1e-12)
    assert np.all(report.osc_sq == 0.0)


JUMP_PROBLEMS = {
    "lshape_poisson": lambda: builtin_problem("lshape_poisson"),
    "varying": varying_linear_problem,
}


@pytest.mark.parametrize("name", sorted(JUMP_PROBLEMS))
@settings(max_examples=10)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_jump_terms_have_the_bits_of_einsum(name, seeds):
    # the contractions written per component keep the products and sums of
    # the 2-term einsums, for broadcast (constant) and sampled diffusion
    problem = JUMP_PROBLEMS[name]()
    mesh = problem.make_initial_mesh()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        marked = rng.choice(mesh.n_elements, size=rng.integers(1, mesh.n_elements // 3 + 2),
                            replace=False)
        mesh, _ = refine_nvb(mesh, marked)
        vectors = rng.normal(size=(mesh.n_elements, 2))
        assert np.array_equal(_jump_terms(mesh, problem, vectors),
                              linear_jump_terms_einsum(mesh, problem, vectors))


def test_nonlinear_jump_terms_have_the_bits_of_the_axis_sum():
    # the normal flux written out as two terms, with squares that
    # underflow and overflow
    problem = builtin_problem("magnetostatics_nl")
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        vectors = wide_magnitudes(rng, (mesh.n_elements, 2))
        with np.errstate(over="ignore", under="ignore"):
            assert np.array_equal(_jump_terms(mesh, problem, vectors),
                                  nonlinear_jump_terms_sum(mesh, vectors))


def test_total_is_sum_of_indicators():
    problem = builtin_problem("square_smooth")
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    samples = volume_samples(mesh, problem)
    sol = solve_linear(assemble_linear(mesh, samples))
    report = estimate(mesh, sol, problem, samples)
    assert report.eta_sq_total == pytest.approx(report.indicators_sq.sum(), rel=1e-12)


def test_estimator_decay_under_uniform_refinement():
    problem = builtin_problem("square_smooth")
    totals = []
    for levels in (4, 6):
        mesh = uniform_refine(problem.make_initial_mesh(), levels)
        samples = volume_samples(mesh, problem)
        sol = solve_linear(assemble_linear(mesh, samples))
        totals.append(estimate(mesh, sol, problem, samples).eta_sq_total)
    ratio = totals[0] / totals[1]
    assert 3.0 < ratio < 5.0


def test_oscillation_of_linear_source_on_reference_triangle():
    # f(x, y) = x, U = 0: osc^2 = |T| * ||x - 1/3||^2 = 1/2 * 1/36
    mesh = load_initial_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    sol = DiscreteSolution(mesh, np.zeros(3))
    problem = poisson(lambda x: x[..., 0])
    report = estimate(mesh, sol, problem, volume_samples(mesh, problem))
    assert report.osc_sq[0] == pytest.approx(1.0 / 72.0, rel=1e-12)
    # eta^2 = |T| * ||x||^2 = 1/2 * 1/12 (no interior edges)
    assert report.indicators_sq[0] == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_constant_data_has_zero_oscillation():
    problem = builtin_problem("convection_diffusion")
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    samples = volume_samples(mesh, problem)
    sol = solve_linear(assemble_linear(mesh, samples))
    report = estimate(mesh, sol, problem, samples)
    # f and the coefficients are constant, u_h is linear per element, so
    # the volume residual is elementwise linear; only the reaction c*u
    # contributes to oscillations here
    assert np.all(report.osc_sq <= report.indicators_sq + 1e-15)


def test_oscillation_bounded_by_volume_term():
    problem = builtin_problem("lshape_poisson")
    mesh = uniform_refine(problem.make_initial_mesh(), 4)
    samples = volume_samples(mesh, problem)
    sol = solve_linear(assemble_linear(mesh, samples))
    report = estimate(mesh, sol, problem, samples)
    assert np.all(report.osc_sq <= report.indicators_sq * (1.0 + 1e-12) + 1e-15)
    assert report.osc_sq_total <= report.eta_sq_total


def test_exact_discrete_solution_leaves_pure_oscillation():
    # single triangle: no interior vertex, so U = 0 is the discrete
    # solution; a mean-free f makes the indicator pure oscillation
    mesh = load_initial_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    sol = DiscreteSolution(mesh, np.zeros(3))
    problem = poisson(lambda x: x[..., 0] - 1.0 / 3.0)
    report = estimate(mesh, sol, problem, volume_samples(mesh, problem))
    assert report.indicators_sq[0] == pytest.approx(report.osc_sq[0], rel=1e-12)


def test_mesh_solution_mismatch():
    problem = builtin_problem("square_smooth")
    mesh = problem.make_initial_mesh()
    other = uniform_refine(mesh, 1)
    sol = DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
    with pytest.raises(EstimatorError):
        estimate(other, sol, problem, volume_samples(other, problem))


def test_non_finite_indicators_are_rejected():
    # NaN < 0 is false, so a sign check alone lets NaN through
    for bad in (np.nan, np.inf):
        with pytest.raises(EstimatorError, match="non-finite"):
            EstimatorReport(np.array([1.0, bad]), np.zeros(2), bad, 0.0)
        with pytest.raises(EstimatorError, match="non-finite"):
            EstimatorReport(np.ones(2), np.array([bad, 0.0]), 2.0, bad)


def test_non_finite_edge_diffusion_stops_the_run_in_estimate():
    # the diffusion is infinite on the line x = 0.5, which carries mesh
    # edges (and so edge Gauss points) but no volume quadrature point
    def diffusion(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (1.0 + 1.0 / np.abs(x[:, 0] - 0.5))[:, None, None] * np.eye(2)

    problem = dataclasses.replace(builtin_problem("square_smooth"), diffusion=diffusion)
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    for max_elements in (10, 10_000):
        with pytest.raises(AfemRunError, match="'diffusion'") as err:
            run_afem(problem, 0.5, max_elements=max_elements, initial_mesh=mesh)
        assert err.value.phase == "estimate"
        assert len(err.value.trace) == 0


def test_nonlinear_estimator_volume_term_for_zero_solution():
    # U = 0: the flux vanishes, so eta^2(T) = |T| * ||f||_T^2 exactly
    problem = builtin_problem("magnetostatics_nl")
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    sol = DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
    report = estimate(mesh, sol, problem, volume_samples(mesh, problem))
    from triafem import quadrature

    p = mesh.vertices[mesh.triangles]
    pts = quadrature.triangle_points(p[:, 0], p[:, 1], p[:, 2])
    f_sq = problem.source(pts.reshape(-1, 2)).reshape(mesh.n_elements, -1) ** 2
    expected = mesh.areas**2 * (f_sq @ quadrature.TRI_WEIGHTS)
    assert report.indicators_sq == pytest.approx(expected, rel=1e-12)


def test_nonlinear_estimator_on_solution():
    problem = builtin_problem("magnetostatics_nl")
    totals = []
    for levels in (3, 5):
        mesh = uniform_refine(problem.make_initial_mesh(), levels)
        samples = volume_samples(mesh, problem)
        sol, _ = solve_nonlinear(mesh, problem, samples)
        totals.append(estimate(mesh, sol, problem, samples).eta_sq_total)
    assert 3.0 < totals[0] / totals[1] < 5.0


def test_reliability_and_efficiency_constants():
    # fitted over a uniform refinement run of the singular benchmark
    problem = builtin_problem("lshape_poisson")
    mesh = problem.make_initial_mesh()
    rel_ratios, eff_ratios = [], []
    for _ in range(6):
        mesh = uniform_refine(mesh, 2)
        samples = volume_samples(mesh, problem)
        sol = solve_linear(assemble_linear(mesh, samples))
        report = estimate(mesh, sol, problem, samples)
        err = np.sqrt(h1_error_sq(mesh, sol.values, problem.exact_grad))
        eta = np.sqrt(report.eta_sq_total)
        osc = np.sqrt(report.osc_sq_total)
        rel_ratios.append(err / eta)
        eff_ratios.append(eta / (err + osc))
    assert max(rel_ratios) <= 10.0
    assert max(eff_ratios) <= 10.0
    # the reliability ratio must not blow up along the run
    assert rel_ratios[-1] <= 2.0 * np.median(rel_ratios)

