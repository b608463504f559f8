import dataclasses
import warnings

import numpy as np
import pytest
from helpers_fem import varying_linear_problem
from helpers_trace import aborted_at_the_first_solve, synthetic_trace

from triafem.checks import (
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
from triafem.driver import AfemRunError, AfemTrace, run_afem, run_uniform
from triafem import assembly, driver
from triafem.assembly import solve_nonlinear, transfer, transfer_many
from triafem.mesh import (
    MeshError,
    load_initial_mesh,
    shape_regularity,
    uniform_refine,
    unit_square_mesh,
)
from triafem.problems import LinearProblem, builtin_names, builtin_problem
from triafem.problems import _constant_matrix, _constant_scalar


@pytest.fixture(scope="module")
def smooth_run():
    return run_afem(
        builtin_problem("square_smooth"), 0.5, max_elements=4000, compute_reference=True
    )


def test_geometric_trace_estimator_reduction_exact():
    trace = synthetic_trace(0.5 ** np.arange(8), grad_diff_sq=np.zeros(8))
    fit = check_estimator_reduction(trace)
    assert fit.q_fit == pytest.approx(0.5)
    assert fit.c_fit == 0.0
    assert fit.violations == ()


def test_zero_tail_trace_has_no_violations():
    eta = np.array([1.0, 0.0, 0.0, 0.0])
    trace = synthetic_trace(eta, grad_diff_sq=np.array([0.1, 0.0, 0.0, np.nan]))
    fit = check_estimator_reduction(trace)
    assert fit.violations == ()


def test_estimator_reduction_detects_growth():
    trace = synthetic_trace(np.array([1.0, 2.0, 4.0, 8.0]), grad_diff_sq=np.zeros(4))
    fit = check_estimator_reduction(trace)
    assert fit.violations != ()
    assert fit.q_fit >= 1.0


def test_estimator_reduction_needs_three_entries():
    with pytest.raises(ValueError):
        check_estimator_reduction(synthetic_trace(np.array([1.0, 0.5])))


def test_rlinear_geometric():
    trace = synthetic_trace(4.0 * 0.7 ** np.arange(30))
    fit = check_rlinear(trace)
    assert fit.passed
    assert fit.q_fit == pytest.approx(0.7, abs=1e-6)
    assert fit.c_fit == pytest.approx(1.0, rel=1e-6)


def test_rlinear_constant_trace_fails():
    fit = check_rlinear(synthetic_trace(np.ones(10)))
    assert not fit.passed


def test_rlinear_bumpy_but_decaying():
    eta = 0.8 ** np.arange(40)
    eta[10] *= 3.0  # single bump absorbed by the envelope constant
    fit = check_rlinear(synthetic_trace(eta))
    assert fit.passed
    assert fit.q_fit < 1.0 and fit.c_fit <= 100.0


def test_rlinear_needs_five_entries():
    with pytest.raises(ValueError):
        check_rlinear(synthetic_trace(np.ones(4)))


def test_fit_rate_exact_synthetic():
    extra = np.array([128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0])
    n0 = 6.0
    trace = synthetic_trace(1.0 / extra, n_elements=n0 + extra)
    trace.columns["n_elements"][0] = n0  # first row is the initial mesh
    trace.columns["eta_sq"][0] = 1.0
    fit = fit_rate(trace)
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_needs_six_points():
    trace = synthetic_trace(np.ones(4), n_elements=np.array([4.0, 200.0, 400.0, 800.0]))
    with pytest.raises(ValueError, match="6 points"):
        fit_rate(trace)


def test_estimator_reduction_inequality_holds_with_fit(smooth_run):
    trace = smooth_run.trace
    fit = check_estimator_reduction(trace)
    eta = trace.eta_sq
    diff = trace.grad_diff_sq
    for k in range(len(trace) - 1):
        d = diff[k] if np.isfinite(diff[k]) else 0.0
        assert eta[k + 1] <= fit.q_fit * eta[k] + fit.c_fit * d + 1e-12 * eta[k]


def test_run_afem_decreasing_estimator(smooth_run):
    eta = smooth_run.trace.eta_sq
    assert np.all(np.diff(eta) < 0.0)
    assert check_convergence(smooth_run.trace, factor=5.0).passed


def test_run_afem_records_are_consistent(smooth_run):
    tr = smooth_run.trace
    assert np.all(np.diff(tr.n_elements) > 0)
    finite = tr.eta_sq[np.isfinite(tr.eta_sq)]
    assert np.all(finite >= 0.0)
    assert np.all(tr.osc_sq >= 0.0)
    assert len(smooth_run.records) == len(tr) - 1
    assert tr.meta["gamma_max"] <= 2.0 * tr.meta["gamma_initial"]
    assert tr.meta["closure_constant"] <= 20.0


@pytest.mark.parametrize("max_elements", [3, 5, 500])
def test_gamma_max_is_the_max_over_every_mesh(max_elements):
    # the driver measures only the new elements of each refinement; from two
    # equilateral triangles the first two refinements each raise gamma
    h = np.sqrt(3.0) / 2.0
    initial = load_initial_mesh([(0.0, 0.0), (1.0, 0.0), (0.5, h), (1.5, h)],
                                [(0, 1, 2), (1, 3, 2)])
    result = run_afem(builtin_problem("square_smooth"), 0.5, max_elements=max_elements,
                      initial_mesh=initial)
    gammas = [shape_regularity(sol.mesh) for sol in result.solutions]
    assert max(gammas) > gammas[0]
    assert result.trace.meta["gamma_max"] == max(gammas)


def test_eta_tol_met_immediately():
    result = run_afem(builtin_problem("square_smooth"), 0.5, eta_tol=1e3)
    assert len(result.trace) == 1
    assert np.isnan(result.trace.n_marked[0])


def test_vanishing_indicators_stop_the_run():
    # zero data: every indicator of the first solution vanishes, marking
    # raises AllZeroIndicators and the run ends on its first row
    problem = dataclasses.replace(builtin_problem("square_smooth"),
                                  source=lambda x: np.zeros(x.shape[0]))
    result = run_afem(problem, 0.5, max_elements=1000)
    tr = result.trace
    assert len(tr) == 1 and tr.ell[0] == 0 and tr.eta_sq[0] == 0.0
    assert np.isnan(tr.n_marked[0]) and np.isnan(tr.refined_eta_sq[0])
    assert tr.wall_time_s[0] > 0.0
    assert result.records == [] and "closure_constant" not in tr.meta
    assert np.all(result.final_solution.values == 0.0)
    assert result.final_solution.mesh.n_elements == 4


def _garding_problem():
    # -Laplace u - 25 u = 1: 25 lies above the first Dirichlet eigenvalue
    # 2 pi^2 of the unit square, so the form satisfies a Garding inequality
    # but is not coercive
    return LinearProblem(
        name="garding",
        diffusion=_constant_matrix(np.eye(2)),
        reaction=_constant_scalar(-25.0),
        source=_constant_scalar(1.0),
        make_initial_mesh=lambda: unit_square_mesh(cross=True),
    )


def _undeclared_convection_diffusion():
    # coercive, but no crude sampled bound on the coefficients shows it
    return dataclasses.replace(builtin_problem("convection_diffusion"), ellipticity_const=None)


@pytest.mark.parametrize("make_problem", [_garding_problem, _undeclared_convection_diffusion],
                         ids=["reaction_minus_25", "convection_diffusion_undeclared"])
def test_garding_operator_runs_without_a_warning(make_problem):
    # the loop asks the form for no more than the paper does: no coercivity test
    problem = make_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_afem(problem, 0.5, max_elements=2000)
    tr = result.trace
    assert tr.n_elements[-1] >= 2000
    assert np.all(np.isfinite(tr.eta_sq)) and tr.eta_sq[-1] < tr.eta_sq[0]


@pytest.mark.parametrize("marking", ["min", "binned"])
def test_refined_eta_sq_is_a_doerfler_sum(marking):
    # the refined set holds the marked one, so its indicator sum carries
    # the Doerfler bound theta * eta^2 and never exceeds eta^2
    theta = 0.4
    tr = run_afem(builtin_problem("lshape_poisson"), theta, max_elements=600,
                  marking=marking, keep_history=False).trace
    refined, eta_sq = tr.refined_eta_sq[:-1], tr.eta_sq[:-1]
    assert len(refined) >= 3 and np.all(np.isfinite(refined))
    assert np.all(refined >= theta * eta_sq * (1.0 - 1e-12))
    assert np.all(refined <= eta_sq * (1.0 + 1e-12))
    assert np.all(tr.n_refined[:-1] >= tr.n_marked[:-1])


def test_reference_without_history():
    # the reference needs every iterate; the run holds them without returning them
    problem = builtin_problem("square_smooth")
    kept = run_afem(problem, 0.5, max_elements=300, compute_reference=True)
    dropped = run_afem(problem, 0.5, max_elements=300, compute_reference=True,
                       keep_history=False)
    assert dropped.solutions is None and len(kept.solutions) == len(kept.trace)
    assert np.all(np.isfinite(dropped.trace.err_energy_sq))
    assert np.array_equal(dropped.trace.err_energy_sq, kept.trace.err_energy_sq)


def test_theta_one_marks_everything():
    result = run_afem(builtin_problem("square_smooth"), 1.0, max_elements=50)
    tr = result.trace
    assert tr.n_marked[0] == tr.n_elements[0]


def test_uniform_run_marks_everything():
    result = run_uniform(builtin_problem("square_smooth"), max_elements=100)
    tr = result.trace
    marked = tr.n_marked[np.isfinite(tr.n_marked)]
    assert np.array_equal(marked, tr.n_elements[: marked.size])


def test_invalid_theta_and_marking():
    problem = builtin_problem("square_smooth")
    with pytest.raises(ValueError, match="theta"):
        run_afem(problem, 1.5, max_elements=100)
    with pytest.raises(ValueError, match="marking"):
        run_afem(problem, 0.5, max_elements=100, marking="other")
    with pytest.raises(ValueError, match="stopping"):
        run_afem(problem, 0.5)


def test_solver_failure_aborts_with_partial_trace():
    problem = builtin_problem("magnetostatics_nl")
    calls = {"n": 0}
    good_source = problem.source

    def flaky_source(x):
        calls["n"] += 1
        out = good_source(x)
        if calls["n"] > 8:
            return np.full_like(out, np.nan)
        return out

    flaky = dataclasses.replace(problem, source=flaky_source)
    with pytest.raises(AfemRunError) as err:
        run_afem(flaky, 0.5, max_elements=5000)
    assert len(err.value.trace) >= 1
    assert err.value.phase in ("solve", "estimate")


def _counting(problem, names):
    """Copy of ``problem`` whose coefficients ``names`` count their calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(problem, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    return dataclasses.replace(problem, **{name: counted(name) for name in names}), calls


def test_coefficients_sampled_once_per_mesh():
    # a linear run samples the volume data once per iteration, for assembly
    # and the estimator together
    volume = ("source", "advection", "reaction", "diffusion_div")
    problem, calls = _counting(varying_linear_problem(), volume)
    result = run_afem(problem, 0.5, max_elements=300, keep_history=False)
    assert len(result.trace) > 3
    assert calls == dict.fromkeys(volume, len(result.trace))

    problem, calls = _counting(builtin_problem("magnetostatics_nl"), ("source",))
    result = run_afem(problem, 0.5, max_elements=200, keep_history=False)
    assert calls["source"] == len(result.trace)

    # and one solve, with all its residuals and Jacobians, samples once
    calls["source"] = 0
    mesh = uniform_refine(problem.make_initial_mesh(), 3)
    _, info = solve_nonlinear(mesh, problem, full_output=True)
    assert info["newton_iterations"] >= 2
    assert calls["source"] == 1


@pytest.mark.parametrize("name", ["lshape_poisson", "convection_diffusion", "magnetostatics_nl"])
def test_only_new_elements_are_sampled(monkeypatch, name):
    # after the first mesh, the source and the diffusion are evaluated at
    # the 7 volume points of each new element only; the estimator's edge
    # samples of the diffusion are not counted
    problem = builtin_problem(name)
    names = ("source", "diffusion") if isinstance(problem, LinearProblem) else ("source",)
    points = {n: [] for n in names}
    counting = [True]

    def counted(n):
        fn = getattr(problem, n)

        def wrapper(x, *args):
            if counting[0]:
                points[n].append(x.shape[0])
            return fn(x, *args)

        return wrapper

    estimate = driver.estimate

    def estimate_uncounted(*args):
        counting[0] = False
        try:
            return estimate(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(driver, "estimate", estimate_uncounted)
    problem = dataclasses.replace(problem, **{n: counted(n) for n in names})
    result = run_afem(problem, 0.5, max_elements=600, keep_history=False)
    assert len(result.records) >= 4
    new = [result.trace.n_elements[0]] + [
        r.nt_after - (r.nt_before - r.refined.size) for r in result.records]
    for n in names:
        assert points[n] == [7 * int(k) for k in new], n


def test_audit_failure_names_its_phase(monkeypatch):
    def broken_audit(old_mesh, new_mesh, record):
        raise MeshError("bisection did not halve the element area")

    monkeypatch.setattr(driver, "audit_refinement", broken_audit)
    with pytest.raises(AfemRunError, match="audit failed at iteration 0") as err:
        run_afem(builtin_problem("square_smooth"), 0.5, max_elements=200)
    assert err.value.phase == "audit"
    assert len(err.value.trace) == 1
    assert "halve" in err.value.trace.meta["aborted"]


def test_quasi_orthogonality_requires_reference():
    result = run_afem(builtin_problem("square_smooth"), 0.5, max_elements=100)
    with pytest.raises(ValueError, match="reference"):
        check_quasi_orthogonality(result.trace, 0.5)


def test_quasi_orthogonality_symmetric_tight(smooth_run):
    report = check_quasi_orthogonality(smooth_run.trace, 0.01)
    assert report.ell0 == 0
    assert report.failures == ()
    assert len(report.usable) >= 3


@pytest.mark.parametrize("max_elements,any_usable", [(300, False), (2000, True)])
def test_quasi_orthogonality_verdict_survives_the_trace_file(tmp_path, max_elements, any_usable):
    # the noise floor is read from the trace itself, so the trace read back
    # from trace.csv, without meta, gets the verdict of the run in memory
    result = run_afem(builtin_problem("magnetostatics_nl"), 0.5, max_elements=max_elements,
                      compute_reference=True)
    path = tmp_path / "trace.csv"
    result.trace.to_csv(path)
    in_memory = check_quasi_orthogonality(result.trace, 0.5)
    read_back = check_quasi_orthogonality(AfemTrace.from_csv(path), 0.5)
    assert read_back.usable == in_memory.usable
    assert read_back.failures == in_memory.failures
    assert bool(in_memory.usable) == any_usable


def test_marking_optimality_rows():
    trace = synthetic_trace(
        np.array([1.0, 0.9]),
        refined_eta_sq=np.array([0.1, np.nan]),
        meta={"theta": 0.3},
    )
    rows = check_marking_optimality(trace, q_values=(0.5, 0.9)).rows
    by_q = {r.q_d: r for r in rows}
    assert not by_q[0.5].applicable and by_q[0.5].passed
    assert by_q[0.9].applicable and not by_q[0.9].passed


def test_marking_optimality_on_run(smooth_run):
    rows = check_marking_optimality(smooth_run.trace).rows
    assert rows
    assert all(r.passed for r in rows)


def test_discrete_reliability_on_run(smooth_run):
    report = check_discrete_reliability(smooth_run.trace)
    assert np.isfinite(report.max_ratio)
    assert report.spread < 10.0


def test_trace_csv_roundtrip(tmp_path, smooth_run):
    path = tmp_path / "trace.csv"
    smooth_run.trace.to_csv(path)
    back = AfemTrace.from_csv(path, meta=smooth_run.trace.meta)
    for name, col in smooth_run.trace.columns.items():
        assert np.array_equal(col, back.columns[name], equal_nan=True), name


def test_trace_csv_roundtrips_non_finite_values(tmp_path):
    # every column, the integer ones included, carries NaN, +inf and -inf
    values = np.array([np.nan, np.inf, -np.inf, 3.0])
    trace = AfemTrace(columns={name: values.copy() for name in driver.TRACE_COLUMNS})
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = AfemTrace.from_csv(path)
    for name in driver.TRACE_COLUMNS:
        assert np.array_equal(back.columns[name], values, equal_nan=True), name


def test_trace_csv_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty trace file"):
        AfemTrace.from_csv(empty)
    # a zero-length trace writes its header only and reads back as itself
    path = tmp_path / "header.csv"
    AfemTrace(columns={name: np.empty(0) for name in driver.TRACE_COLUMNS}).to_csv(path)
    back = AfemTrace.from_csv(path)
    assert len(back) == 0
    assert set(back.columns) == set(driver.TRACE_COLUMNS)


@pytest.mark.parametrize("row,fault", [
    ("0,4,5", "12 fields, got 3"),
    (",".join(["1.0"] * 13), "12 fields, got 13"),
    ("0,4,5,2,2,0.5,0.0,0.3,nan,nan,abc,0.01", "could not convert string to float: 'abc'"),
], ids=["short", "long", "not-a-number"])
def test_trace_csv_names_the_malformed_line(row, fault, tmp_path):
    # the bad row is the third line of the file, after a good one
    good = ",".join(["1.0"] * len(driver.TRACE_COLUMNS))
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([",".join(driver.TRACE_COLUMNS), good, row]) + "\n")
    with pytest.raises(ValueError, match=f"^line 3: .*{fault}"):
        AfemTrace.from_csv(path)


def test_checkers_are_pure_functions_of_the_trace(tmp_path, smooth_run):
    path = tmp_path / "trace.csv"
    smooth_run.trace.to_csv(path)
    back = AfemTrace.from_csv(path, meta=smooth_run.trace.meta)
    a1 = check_estimator_reduction(back)
    a2 = check_estimator_reduction(back)
    assert a1 == a2
    r1 = check_rlinear(back)
    r2 = check_rlinear(AfemTrace.from_csv(path, meta=smooth_run.trace.meta))
    assert r1 == r2
    assert a1 == check_estimator_reduction(smooth_run.trace)


def test_convergence_report():
    good = synthetic_trace(np.array([1.0, 1e-1, 1e-3, 1e-5]))
    assert check_convergence(good).passed
    bad = synthetic_trace(np.array([1.0, 0.9, 0.8, 0.7]))
    assert not check_convergence(bad).passed


def test_check_result_reads_its_values_as_attributes():
    check = CheckResult("pass", "q=0.5", {"q_fit": 0.5})
    assert check.passed and check.q_fit == 0.5
    assert not CheckResult("skip", "").passed
    with pytest.raises(AttributeError):
        check.c_fit


def test_checks_that_read_a_refinement_skip_a_one_row_trace():
    trace = synthetic_trace(np.array([1.0]), meta={
        "theta": 0.5, "gamma_initial": 1.0, "gamma_max": 1.0, "closure_constant": 0.0})
    for check in (check_convergence, check_marking_optimality, check_mesh_audit):
        with pytest.raises(ValueError, match="no refinement step"):
            check(trace)


def test_checks_that_read_run_meta_raise_on_a_trace_without_it(tmp_path, smooth_run):
    # a trace read back without its meta; the CLI reports these as SKIP
    path = tmp_path / "trace.csv"
    smooth_run.trace.to_csv(path)
    back = AfemTrace.from_csv(path)
    with pytest.raises(ValueError, match="gamma_initial, gamma_max, closure_constant$"):
        check_mesh_audit(back)
    with pytest.raises(ValueError, match="theta"):
        check_marking_optimality(back)
    assert check_mesh_audit(AfemTrace.from_csv(path, meta=smooth_run.trace.meta)).passed


@pytest.mark.parametrize("gamma_max, closure, status", [
    (2.6, 20.0, "pass"),
    (np.nextafter(2.6, np.inf), 20.0, "fail"),
    (2.6, np.nextafter(20.0, np.inf), "fail"),
])
def test_mesh_audit_bounds(gamma_max, closure, status):
    # gamma_max up to twice gamma_initial, the closure constant up to 20
    trace = synthetic_trace(np.array([1.0, 0.5]), meta={
        "gamma_initial": 1.3, "gamma_max": gamma_max, "closure_constant": closure})
    check = check_mesh_audit(trace)
    assert check.status == status
    assert check.detail == f"gamma0=1.3 gamma_max={gamma_max:.4g} closure={closure:.4g}"


@pytest.mark.parametrize("largest, status", [(np.nextafter(10.0, 0.0), "pass"), (10.0, "fail")])
def test_discrete_reliability_spread_bound(largest, status):
    # the first step lies before the fit window and has the smallest ratio
    trace = synthetic_trace(
        np.ones(4), n_elements=np.array([4.0, 200.0, 400.0, 800.0]),
        grad_diff_sq=np.array([0.01, 1.0, largest, np.nan]),
        refined_eta_sq=np.array([1.0, 1.0, 1.0, np.nan]))
    check = check_discrete_reliability(trace)
    assert check.status == status
    assert check.spread == largest
    assert list(check.ratios) == [1.0, largest]


def test_quasi_orthogonality_skips_without_a_usable_step():
    # every error lies within ten times the final one: no step is usable
    trace = synthetic_trace(np.ones(3), err_energy_sq=np.array([4.0, 2.0, 1.0]),
                            energy_diff_sq=np.array([1.0, 1.0, np.nan]))
    check = check_quasi_orthogonality(trace, 0.5)
    assert check.status == "skip"
    assert check.usable == ()


def test_binned_marking_run_completes():
    result = run_afem(
        builtin_problem("square_smooth"), 0.5, max_elements=400, marking="binned"
    )
    assert result.trace.meta["marking"] == "binned"
    assert check_estimator_reduction(result.trace).passed


def _count_transfers(monkeypatch, name, max_elements):
    """A reference run's length, the target sizes of its transfers and the
    solution count of every transfer_many pass, transfers included."""
    calls, passes = [], []

    def counting_transfer(sol, finer):
        calls.append(finer.n_elements)
        return transfer(sol, finer)

    def counting_transfer_many(solutions, finer):
        passes.append(len(solutions))
        return transfer_many(solutions, finer)

    monkeypatch.setattr(driver, "transfer", counting_transfer)
    # every transfer is a one-solution pass of transfer_many
    monkeypatch.setattr(assembly, "transfer_many", counting_transfer_many)
    result = run_afem(builtin_problem(name), 0.5, max_elements=max_elements,
                      compute_reference=True)
    return len(result.trace), calls, passes


def test_one_transfer_per_iteration(monkeypatch):
    # per refinement step one transfer serves as Newton guess and increment;
    # the reference adds one for its guess and reads the iterates of a
    # gradient-only problem on their own meshes, with no prolongation pass
    n, calls, passes = _count_transfers(monkeypatch, "magnetostatics_nl", 2000)
    assert n == 19
    assert len(calls) == (n - 1) + 1 == 19
    assert passes == [1] * 19


def test_linear_reference_prolongs_the_iterates_in_one_pass(monkeypatch):
    # a linear reference solve needs no guess; its energies read the
    # iterates' point values, so they are prolonged, all in one pass
    n, calls, passes = _count_transfers(monkeypatch, "convection_diffusion", 1000)
    assert n > 3
    assert len(calls) == n - 1
    assert passes == [1] * (n - 1) + [n]


def test_build_reference_needs_records_that_chain_the_iterates():
    # the records' element maps reach the iterates only through a chain of
    # refinements: a missing record, one out of place, or one whose counts
    # agree but whose kept elements differ is refused
    problem = builtin_problem("magnetostatics_nl")
    result = run_afem(problem, 0.5, max_elements=150)
    solutions, records = result.solutions, result.records
    last = records[-1]
    kept = last.kept
    # the same counts, one kept element swapped for a refined one
    refined = np.sort(np.append(last.refined[1:], kept[0]))
    moved = dataclasses.replace(last, refined=refined)
    assert (moved.nt_before, moved.nt_after) == (last.nt_before, last.nt_after)
    for bad in (records[1:], records[:-1] + [records[0]], records[:-1] + [moved],
                records + [last]):
        with pytest.raises(ValueError, match="do not chain"):
            driver.build_reference(problem, solutions, bad)
    errors = driver.build_reference(problem, solutions, records)
    assert len(errors) == len(solutions)


def _assert_json_scalars(meta):
    # meta.json writes the trace meta unfiltered
    for key, value in meta.items():
        assert isinstance(value, (str, int, float, bool, type(None))), (key, type(value))


@pytest.mark.parametrize("name", builtin_names())
def test_run_meta_holds_json_scalars_only(name):
    result = run_afem(builtin_problem(name), 0.5, max_elements=200,
                      compute_reference=name == "magnetostatics_nl")
    assert ("noise_floor_err_sq" in result.trace.meta) == (name == "magnetostatics_nl")
    _assert_json_scalars(result.trace.meta)


def test_aborted_run_meta_holds_json_scalars_only():
    meta = aborted_at_the_first_solve().meta
    assert "aborted" in meta
    _assert_json_scalars(meta)
