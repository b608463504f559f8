"""Acceptance suite: one test per criterion, run with ``pytest -v``.

Heavy runs are shared through session fixtures. The uniform-baseline half
of criterion 1 fits the two-term law eta^2 ~ a*x^-1 + b*x^(-2s) that a priori
theory gives for uniform refinement of the L-shape, and asserts the singular
exponent s and the share of the singular term; a single power law over the
same window measures a mixture of both terms (0.426 at 2e5 elements). The
analysis is in notes/decisions.md.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import nnls
from helpers_fem import h1_error_sq
from helpers_marking import oracle_min_cardinality
from helpers_problems import flux_jacobian_fd_error, manufactured_weak_residual

from triafem import assembly
from triafem.assembly import (
    DiscreteSolution,
    energy_products,
    grad_norm_sq,
    nonlinear_jacobian,
    nonlinear_residual,
    solve_nonlinear,
    transfer,
    volume_samples,
)
from triafem.checks import (
    MARKING_Q_VALUES,
    check_convergence,
    check_discrete_reliability,
    check_estimator_reduction,
    check_marking_optimality,
    check_quasi_orthogonality,
    check_rlinear,
    fit_rate,
)
from triafem.driver import run_afem, run_uniform
from triafem.estimator import estimate
from triafem.marking import mark_binned, mark_min
from triafem.mesh import overlay, refine_nvb, uniform_refine
from triafem.problems import (
    builtin_names,
    builtin_problem,
)

THETA_SET = (0.3, 0.5, 0.8)
BUDGETS = {
    "lshape_poisson": 4000,
    "square_smooth": 3000,
    "convection_diffusion": 3000,
    "magnetostatics_nl": 2500,
}


@pytest.fixture(scope="session")
def lshape_runs():
    problem = builtin_problem("lshape_poisson")
    tic = time.perf_counter()
    adaptive = run_afem(problem, 0.5, max_elements=100_000, keep_history=False)
    uniform = run_uniform(problem, max_elements=100_000, keep_history=False)
    elapsed = time.perf_counter() - tic
    return {"adaptive": adaptive, "uniform": uniform, "seconds": elapsed}


@pytest.fixture(scope="session")
def theta_runs():
    runs = {}
    for name in builtin_names():
        for theta in THETA_SET:
            runs[name, theta] = run_afem(
                builtin_problem(name), theta, max_elements=BUDGETS[name],
                keep_history=False,
            )
    return runs


@pytest.fixture(scope="session")
def reference_runs():
    return {
        "convection_diffusion": run_afem(
            builtin_problem("convection_diffusion"), 0.5, max_elements=8000,
            compute_reference=True,
        ),
        "magnetostatics_nl": run_afem(
            builtin_problem("magnetostatics_nl"), 0.5, max_elements=6000,
            compute_reference=True,
        ),
        "square_smooth": run_afem(
            builtin_problem("square_smooth"), 0.5, max_elements=4000,
            compute_reference=True,
        ),
    }


# -- criterion 1: optimal adaptive rate, uniform baseline, runtime -----------

def test_criterion_1_adaptive_rate_and_runtime(lshape_runs):
    fit = fit_rate(lshape_runs["adaptive"].trace)
    print(f"\nadaptive rate s = {fit.rate:.4f} (residual {fit.residual:.3g}), "
          f"combined runtime {lshape_runs['seconds']:.1f}s")
    assert 0.45 <= fit.rate <= 0.55
    assert lshape_runs["seconds"] < 120.0


class SingularFit(NamedTuple):
    s: float
    a: float
    b: float
    singular_share: float


def fit_singular_exponent(trace):
    """Fit ``eta^2 ~ a*x^-1 + b*x^(-2s)`` with ``a, b >= 0``.

    ``x`` is #elements - #initial on the window ``x >= 100``, as in
    ``fit_rate``. The smooth term keeps the P1 rate; the singular exponent
    ``s`` is scanned over 0.001, 0.002, ..., 0.5 (at most 1/2: a term that
    decays faster than the smooth one is no singularity) and (a, b) solve a non-negative
    least-squares problem in the relative residual model/eta^2 - 1, which is
    the log residual to first order. ``singular_share`` is the b-term's share
    of the model at the last iterate; with ``b = 0`` the exponent is not
    determined and ``s`` is NaN.
    """
    extra = trace.n_elements - trace.n_elements[0]
    keep = (extra >= 100) & (trace.eta_sq > 0.0)
    x, eta_sq = extra[keep], trace.eta_sq[keep]
    if x.size < 4:
        raise ValueError("two-term fit needs at least 4 points in the window")
    best = None
    for s in np.arange(1, 501) / 1000.0:
        basis = np.column_stack([1.0 / x, x ** (-2.0 * s)]) / eta_sq[:, None]
        (a, b), rnorm = nnls(basis, np.ones_like(eta_sq))
        if best is None or rnorm < best[0]:
            best = (rnorm, s, a, b)
    _, s, a, b = best
    singular = b * x[-1] ** (-2.0 * s)
    share = singular / (a / x[-1] + singular)
    return SingularFit(s=float(s) if b > 0.0 else np.nan, a=float(a), b=float(b),
                       singular_share=float(share))


def test_criterion_1_uniform_baseline_rate(lshape_runs):
    trace = lshape_runs["uniform"].trace
    fit = fit_singular_exponent(trace)
    print(f"\nuniform baseline: singular exponent s = {fit.s:.4f} (a = {fit.a:.1f}, "
          f"b = {fit.b:.2f}, singular share {fit.singular_share:.3f}); "
          f"single-slope fit {fit_rate(trace).rate:.4f}")
    assert 0.28 <= fit.s <= 0.38, (
        f"singular exponent s = {fit.s:.4f} of the two-term fit "
        "eta^2 ~ a*x^-1 + b*x^(-2s) lies outside 1/3 +- 0.05; "
        "see notes/decisions.md"
    )
    assert fit.singular_share >= 0.5, (
        f"singular term carries {fit.singular_share:.3f} of eta^2 at the last "
        "iterate; the exponent is not determined by a minor term. "
        "See notes/decisions.md"
    )


@pytest.mark.parametrize("name", ["square_smooth", "convection_diffusion"])
def test_criterion_1_singular_fit_rejects_smooth_uniform_runs(name):
    # without a corner singularity the uniform estimator decays like x^-1,
    # so the condition that test_criterion_1_uniform_baseline_rate asserts
    # must not hold
    result = run_uniform(builtin_problem(name), max_elements=10_000, keep_history=False)
    fit = fit_singular_exponent(result.trace)
    print(f"\n{name}: s = {fit.s:.4f}, singular share {fit.singular_share:.3f}")
    assert not (0.28 <= fit.s <= 0.38 and fit.singular_share >= 0.5)


def test_criterion_1_uniform_slopes_decrease_toward_one_third(lshape_runs):
    # the honest part of the baseline story: local slopes fall monotonically
    # from the N^(-1/2) regime toward N^(-1/3) once the corner dominates
    trace = lshape_runs["uniform"].trace
    eta = np.sqrt(trace.eta_sq)
    n = trace.n_elements
    slopes = -np.diff(np.log(eta[4:])) / np.diff(np.log(n[4:] - n[0]))
    tail = slopes[-5:]
    assert np.all(np.diff(tail) < 0.015)
    assert 1.0 / 3.0 - 0.02 < tail[-1] < 0.5
    adaptive_fit = fit_rate(lshape_runs["adaptive"].trace)
    uniform_fit = fit_rate(trace)
    assert adaptive_fit.rate > uniform_fit.rate + 0.05


# -- criterion 2: estimator reduction ----------------------------------------

def test_criterion_2_estimator_reduction(theta_runs):
    for (name, theta), result in theta_runs.items():
        fit = check_estimator_reduction(result.trace)
        print(f"\n{name} theta={theta}: q_fit={fit.q_fit:.4f} C_fit={fit.c_fit:.3g}")
        assert fit.q_fit < 1.0, (name, theta)
        assert fit.violations == (), (name, theta)


# -- criterion 3: quasi-Pythagoras --------------------------------------------

def test_criterion_3_quasi_pythagoras(reference_runs):
    for name in ("convection_diffusion", "magnetostatics_nl"):
        report = check_quasi_orthogonality(reference_runs[name].trace, epsilon=0.5)
        print(f"\n{name}: ell0={report.ell0} usable={len(report.usable)}")
        assert len(report.usable) >= 3, name
        assert report.ell0 <= 5, name
        assert all(k < report.ell0 for k in report.failures), name
    symmetric = check_quasi_orthogonality(
        reference_runs["square_smooth"].trace, epsilon=0.01
    )
    print(f"square_smooth eps=0.01: ell0={symmetric.ell0} usable={len(symmetric.usable)}")
    assert symmetric.failures == ()
    assert symmetric.ell0 == 0


def test_quasi_pythagoras_needs_epsilon_on_nonsymmetric(reference_runs):
    # with (nearly) no slack the non-symmetric compactness term shows up:
    # the checker reports the failing steps instead of asserting
    tight = check_quasi_orthogonality(
        reference_runs["convection_diffusion"].trace, epsilon=0.0
    )
    relaxed = check_quasi_orthogonality(
        reference_runs["convection_diffusion"].trace, epsilon=0.5
    )
    assert tight.failures != ()
    assert relaxed.failures == ()


# -- criterion 4: R-linear decay ----------------------------------------------

def test_criterion_4_rlinear_decay(theta_runs):
    for (name, theta), result in theta_runs.items():
        fit = check_rlinear(result.trace)
        print(f"\n{name} theta={theta}: q={fit.q_fit:.4f} C={fit.c_fit:.3g}")
        assert fit.passed, (name, theta)
        assert fit.q_fit < 1.0 and fit.c_fit <= 100.0, (name, theta)


# -- criterion 5: marking oracle equivalence -----------------------------------

def test_criterion_5_marking_oracle_equivalence():
    # integer-valued indicators keep all subset sums exact in float64
    rng = np.random.default_rng(2024)
    worst_ratio = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 16))
        values = rng.integers(0, 1000, size=n).astype(float)
        if not values.any():
            values[rng.integers(0, n)] = 1.0
        theta = float(rng.uniform(0.05, 1.0))
        minimal = mark_min(values, theta)
        assert values[minimal.marked].sum() >= theta * values.sum()
        assert minimal.marked.size == oracle_min_cardinality(values, theta)
        binned = mark_binned(values, theta)
        assert binned.achieved_fraction >= theta
        assert binned.marked.size <= 2 * minimal.marked.size
        worst_ratio = max(worst_ratio, binned.marked.size / minimal.marked.size)
    print(f"\nworst binned/minimal cardinality ratio: {worst_ratio:.3f}")


# -- criterion 6: mesh structural suite ----------------------------------------

def test_criterion_6_structural_suite(theta_runs, lshape_runs, reference_runs):
    # conformity, positive areas, exact son-area halving and generation
    # increments are enforced after every refinement by the in-run audit,
    # which raises on any violation; here we check the
    # recorded run constants and the overlay properties
    pool = list(theta_runs.values()) + list(reference_runs.values()) + [
        lshape_runs["adaptive"], lshape_runs["uniform"],
    ]
    for result in pool:
        meta = result.trace.meta
        assert meta["gamma_max"] <= 2.0 * meta["gamma_initial"]
        assert meta.get("closure_constant", 0.0) <= 20.0
        assert result.records, "run recorded no refinements"

    problem = builtin_problem("lshape_poisson")
    shared = problem.make_initial_mesh()
    run_a = run_afem(problem, 0.3, max_elements=1500, initial_mesh=shared)
    run_b = run_afem(problem, 0.8, max_elements=1500, initial_mesh=shared)
    m_a, m_b = run_a.final_solution.mesh, run_b.final_solution.mesh
    ov = overlay(m_a, m_b)
    ov.validate()
    assert ov.n_elements <= m_a.n_elements + m_b.n_elements - shared.n_elements
    assert overlay(ov, ov).same_elements(ov)
    assert overlay(ov, m_a).same_elements(ov)
    assert overlay(ov, m_b).same_elements(ov)
    assert ov.areas.sum() == pytest.approx(3.0)
    print(f"\noverlay: {m_a.n_elements} + {m_b.n_elements} -> {ov.n_elements} "
          f"(bound {m_a.n_elements + m_b.n_elements - shared.n_elements})")


# -- criterion 7: discrete reliability stability --------------------------------

def test_criterion_7_discrete_reliability(theta_runs):
    for name in builtin_names():
        report = check_discrete_reliability(theta_runs[name, 0.5].trace)
        print(f"\n{name}: max={report.max_ratio:.4f} min={report.min_ratio:.4f} "
              f"spread={report.spread:.2f}")
        assert report.ratios.size >= 3, name
        assert np.isfinite(report.max_ratio), name
        assert report.spread < 10.0, name


# -- criterion 8: nonlinear solver ----------------------------------------------

def test_criterion_8_nonlinear_solver(monkeypatch):
    problem = builtin_problem("magnetostatics_nl")
    mesh = problem.make_initial_mesh()
    previous = None
    sizes, errors, newton_counts = [], [], []
    while mesh.n_elements < 20_000:
        guess = transfer(previous, mesh) if previous is not None else None
        samples = volume_samples(mesh, problem)
        sol, info = solve_nonlinear(mesh, problem, samples, initial_guess=guess)
        newton_counts.append(info["newton_iterations"])
        assert info["fallback_iterations"] == 0
        sizes.append(mesh.n_elements)
        errors.append(np.sqrt(h1_error_sq(mesh, sol.values, problem.exact_grad)))
        report = estimate(mesh, sol, problem, samples)
        marked = mark_min(report.indicators_sq, 0.5)
        mesh, _ = refine_nvb(mesh, marked.marked)
        previous = sol
    print(f"\nnewton iterations per mesh: max={max(newton_counts)} "
          f"({len(newton_counts)} levels)")
    assert max(newton_counts) <= 15

    sizes = np.asarray(sizes, dtype=float)
    errors = np.asarray(errors)
    window = sizes - sizes[0] >= 100
    slope = np.polyfit(np.log(sizes[window] - sizes[0]), np.log(errors[window]), 1)[0]
    print(f"H1 error rate under adaptive refinement: {-slope:.4f}")
    assert -slope >= 0.45

    # slow path: the damped Riesz fallback alone on a coarse mesh
    coarse = uniform_refine(problem.make_initial_mesh(), 2)
    samples = volume_samples(coarse, problem)
    monkeypatch.setattr(assembly, "MAX_NEWTON", 0)
    sol, info = solve_nonlinear(coarse, problem, samples)
    print(f"zarantonello-only iterations: {info['fallback_iterations']}")
    assert 0 < info["fallback_iterations"] <= 10_000
    resid = nonlinear_residual(coarse, problem, sol.values, samples)
    ref = nonlinear_residual(coarse, problem, np.zeros(coarse.n_vertices), samples)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(ref)


# -- criterion 9: numerical cross-checks -----------------------------------------

def test_criterion_9_cross_checks():
    problem = builtin_problem("magnetostatics_nl")

    # assembled Newton Jacobian against finite differences of the residual
    mesh = uniform_refine(problem.make_initial_mesh(), 2)
    samples = volume_samples(mesh, problem)
    rng = np.random.default_rng(7)
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = rng.normal(0.0, 0.3, mesh.interior_vertices.size)
    jac = nonlinear_jacobian(mesh, problem, values).toarray()
    step = 1e-6
    fd = np.empty_like(jac)
    for k, v in enumerate(mesh.interior_vertices):
        up, down = values.copy(), values.copy()
        up[v] += step
        down[v] -= step
        fd[:, k] = (
            nonlinear_residual(mesh, problem, up, samples)
            - nonlinear_residual(mesh, problem, down, samples)
        ) / (2.0 * step)
    jac_err = np.abs(fd - jac).max() / np.abs(jac).max()
    assert jac_err <= 1e-5
    assert flux_jacobian_fd_error(problem, n_samples=100, seed=11) <= 1e-5

    # manufactured right-hand sides: weak residual of the exact solution
    residuals = {}
    for name, levels in (("square_smooth", 6), ("magnetostatics_nl", 6),
                         ("lshape_poisson", 8)):
        prob = builtin_problem(name)
        quad_mesh = uniform_refine(prob.make_initial_mesh(), levels)
        residuals[name] = manufactured_weak_residual(
            prob, quad_mesh, n_tests=20, seed=0, gauss_order=10
        )
        assert residuals[name] <= 1e-8, name

    # quasi-metric equivalence band on random discrete pairs
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    samples = volume_samples(mesh, problem)
    lo_band = problem.monotone_const
    hi_band = 2.0 * problem.lipschitz_const
    rng = np.random.default_rng(13)
    for _ in range(100):
        w = np.zeros(mesh.n_vertices)
        v = np.zeros(mesh.n_vertices)
        w[mesh.interior_vertices] = rng.normal(0.0, 0.7, mesh.interior_vertices.size)
        v[mesh.interior_vertices] = rng.normal(0.0, 0.7, mesh.interior_vertices.size)
        [dl_sq] = energy_products(
            mesh, problem, DiscreteSolution(mesh, w), [DiscreteSolution(mesh, v)], samples
        )
        h1 = grad_norm_sq(mesh, w - v)
        assert lo_band * h1 - 1e-12 <= dl_sq <= hi_band * h1 + 1e-12
    print(f"\njacobian fd err {jac_err:.2e}; weak residuals "
          + ", ".join(f"{k}={v:.2e}" for k, v in residuals.items()))


# -- module invariants tied to the acceptance runs --------------------------------

def test_convergence_invariant_on_all_builtins():
    # element budgets sized so eta drops by at least 100x; the lshape run
    # ends at 414,002 elements, whose last solves (over 2e5 unknowns) are
    # the largest sparse LU factorisations of the suite
    budgets = {"square_smooth": (0.8, 80_000), "convection_diffusion": (0.8, 80_000),
               "magnetostatics_nl": (0.8, 80_000), "lshape_poisson": (0.5, 330_000)}
    for name, (theta, budget) in budgets.items():
        result = run_afem(builtin_problem(name), theta, max_elements=budget,
                          keep_history=False)
        report = check_convergence(result.trace)
        print(f"\n{name}: eta reduction {report.reduction:.1f}x")
        assert report.passed, name


def test_marking_variants_agree_on_rates():
    problem = builtin_problem("lshape_poisson")
    fits = {}
    for variant in ("min", "binned"):
        result = run_afem(problem, 0.5, max_elements=20_000, marking=variant,
                          keep_history=False)
        fits[variant] = fit_rate(result.trace).rate
    print(f"\nrates: {fits}")
    assert abs(fits["min"] - fits["binned"]) <= 0.05


def test_marking_optimality_on_acceptance_runs(theta_runs):
    for (name, theta), result in theta_runs.items():
        table = check_marking_optimality(result.trace).values
        failing = np.argwhere(~table["passed"])
        assert not failing.size, (name, theta, [(table["ell"][k], MARKING_Q_VALUES[j])
                                                for k, j in failing[:3]])
        assert table["applicable"].any(), (name, theta)
