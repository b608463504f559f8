"""Traces for the tests: synthetic ones, an aborted run's, a trace file
without its run-varying columns, and reference forms of the checks."""

import dataclasses
import math

import numpy as np

from triafem.checks import FIT_WINDOW, MARKING_Q_VALUES, CheckResult, _verdict
from triafem.driver import TRACE_COLUMNS, VARYING_COLUMNS, AfemRunError, AfemTrace, run_afem
from triafem.problems import builtin_problem


def without_varying_columns(text):
    """A trace file's text without its ``VARYING_COLUMNS``."""
    rows = [line.split(",") for line in text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in VARYING_COLUMNS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows) + "\n"


def aborted_at_the_first_solve():
    """The partial trace, with no rows, of a run whose first solve fails
    on a NaN source."""
    problem = dataclasses.replace(builtin_problem("square_smooth"),
                                  source=lambda x: np.full(x.shape[0], np.nan))
    try:
        run_afem(problem, 0.5, max_elements=100)
    except AfemRunError as exc:
        assert str(exc).startswith("solve failed at iteration 0")
        return exc.trace
    raise AssertionError("the run did not abort")


def synthetic_trace(eta_sq, **overrides):
    """Trace from raw columns; anything not supplied is padded, with NaN
    where no default is set here."""
    eta_sq = np.asarray(eta_sq, dtype=float)
    n = eta_sq.size
    columns = {name: np.full(n, np.nan) for name in TRACE_COLUMNS}
    columns.update(ell=np.arange(n, dtype=float),
                   n_elements=overrides.pop("n_elements", 4.0 * 2.0 ** np.arange(n)),
                   eta_sq=eta_sq, osc_sq=np.zeros(n), wall_time_s=np.zeros(n))
    meta = overrides.pop("meta", {})
    for name, value in overrides.items():
        if name not in columns:
            raise TypeError(f"unknown trace column {name!r}")
        arr = np.asarray(value, dtype=float)
        if arr.size != n:
            raise ValueError(f"column {name!r} has wrong length")
        columns[name] = arr.astype(float)
    return AfemTrace(columns=columns, meta=dict(meta))


# -- loop forms of the checks that triafem.checks computes over arrays,
# kept as the references its oracle tests compare against

def nonfinite_estimator_loop(trace):
    """The failing result of a trace whose eta^2 is NaN or infinite on some
    row, naming the first such row, or None."""
    for k, eta_sq in enumerate(trace.eta_sq):
        if not math.isfinite(eta_sq):
            return CheckResult("fail", f"non-finite eta_sq in row {k}")
    return None


def estimator_reduction_loop(trace):
    """Per-step loop form of :func:`triafem.checks.check_estimator_reduction`."""
    if len(trace) < 3:
        raise ValueError("estimator reduction needs a trace of length >= 3")
    if failed := nonfinite_estimator_loop(trace):
        return failed
    eta = trace.eta_sq
    diff = np.where(np.isfinite(trace.grad_diff_sq), trace.grad_diff_sq, 0.0)
    q_needed = []
    violations = []
    for k in range(len(trace) - 1):
        slack = eta[k + 1] - 1e6 * diff[k]
        if eta[k] > 0.0:
            q = slack / eta[k]
            q_needed.append(q)
            if q >= 1.0:
                violations.append(k)
        elif slack > 0.0:
            violations.append(k)
    q_fit = max(0.0, max(q_needed, default=0.0))
    c_fit = 0.0
    for k in range(len(trace) - 1):
        if diff[k] > 0.0:
            c_fit = max(c_fit, (eta[k + 1] - q_fit * eta[k]) / diff[k])
    return _verdict(not violations and q_fit < 1.0,
                    f"q_fit={q_fit:.6g} C_fit={c_fit:.6g} violations={violations}",
                    q_fit=q_fit, c_fit=c_fit, violations=tuple(violations))


def _exp(x):
    """``math.exp``, +inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def rlinear_bisection(trace):
    """:func:`triafem.checks.check_rlinear` with its smallest admissible
    rate found by an 80-step bisection; returns the upper bracket."""
    if len(trace) < 5:
        raise ValueError("R-linear check needs a trace of length >= 5")
    if failed := nonfinite_estimator_loop(trace):
        return failed

    def verdict(passed, q_fit, c_fit):
        return _verdict(passed, f"q_fit={q_fit:.6g} C_fit={c_fit:.6g}", q_fit=q_fit, c_fit=c_fit)

    eta2 = trace.eta_sq
    pos = eta2 > 0.0
    if not pos.all():
        first_zero = int(np.argmin(pos))
        if np.any(eta2[first_zero:] > 0.0):
            return verdict(False, 1.0, math.inf)
        eta2 = eta2[:first_zero]
        if eta2.size < 3:
            return verdict(True, 0.0, 1.0)
    y = np.log(eta2)
    slope = np.polyfit(np.arange(y.size), y, 1)[0]
    q_ls = float(np.exp(slope))

    max_gap = np.array([np.max(y[k:] - y[:-k]) for k in range(1, y.size)])
    ks = np.arange(1, y.size)

    def log_c(q):
        return float(np.max(max_gap - ks * math.log(q)))

    log_cap = math.log(100.0)
    if q_ls >= 1.0:
        return verdict(False, q_ls, _exp(float(np.max(max_gap))))
    if log_c(q_ls) <= log_cap:
        return verdict(True, q_ls, math.exp(log_c(q_ls)))
    lo, hi = q_ls, 1.0 - 1e-12
    if log_c(hi) > log_cap:
        return verdict(False, 1.0, _exp(log_c(hi)))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_c(mid) <= log_cap:
            hi = mid
        else:
            lo = mid
    return verdict(True, hi, math.exp(log_c(hi)))


def quasi_orthogonality_loop(trace, epsilon):
    """Per-step loop form of :func:`triafem.checks.check_quasi_orthogonality`."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    err = trace.err_energy_sq
    diff = trace.energy_diff_sq
    if not np.any(np.isfinite(err)):
        raise ValueError("trace has no reference energies; run with compute_reference")
    floor = 10.0**2 * err[-1]
    usable, failures, slack = [], [], {}
    for k in range(len(trace) - 1):
        if not (math.isfinite(err[k]) and math.isfinite(err[k + 1]) and math.isfinite(diff[k])):
            continue
        if err[k] <= floor or err[k + 1] <= floor:
            continue
        usable.append(k)
        s = err[k] / (1.0 - epsilon) - err[k + 1] - diff[k]
        slack[k] = s
        if s < 0.0:
            failures.append(k)
    ell0 = (max(failures) + 1) if failures else 0
    values = dict(ell0=ell0, failures=tuple(failures), usable=tuple(usable), slack=slack)
    if not usable:
        return CheckResult("skip", "no iterations above the reference noise floor", values)
    return _verdict(not failures, f"epsilon={epsilon} ell0={ell0} failures={failures} "
                    f"usable={len(usable)}", **values)


def marking_optimality_loop(trace):
    """Per-step loop form of :func:`triafem.checks.check_marking_optimality`."""
    theta = trace.meta.get("theta")
    if theta is None:
        raise ValueError("marking optimality needs the run's theta")
    if len(trace) < 2:
        raise ValueError("the trace has no refinement step")
    if failed := nonfinite_estimator_loop(trace):
        return failed
    eta, refined = trace.eta_sq, trace.refined_eta_sq
    ell, applicable, passed = [], [], []
    for k in range(len(trace) - 1):
        if not math.isfinite(refined[k]):
            continue
        ell.append(k)
        applicable.append([eta[k + 1] <= q_d * eta[k] for q_d in MARKING_Q_VALUES])
        passed.append([not a or refined[k] >= theta * eta[k] * (1.0 - 1e-12)
                       for a in applicable[-1]])
    shape = (len(ell), len(MARKING_Q_VALUES))
    applicable = np.array(applicable, dtype=bool).reshape(shape)
    passed = np.array(passed, dtype=bool).reshape(shape)
    failing = int(np.sum(~passed))
    return _verdict(not failing, f"applicable={int(np.sum(applicable))} failing={failing}",
                    ell=np.array(ell, dtype=np.int64), applicable=applicable, passed=passed)


def discrete_reliability_loop(trace):
    """Per-step loop form of :func:`triafem.checks.check_discrete_reliability`."""
    num, den = trace.grad_diff_sq, trace.refined_eta_sq
    extra = trace.n_elements - trace.n_elements[0]
    ratios = np.array([
        num[k] / den[k] if den[k] > 0.0 else 0.0 for k in range(len(trace) - 1)
        if math.isfinite(num[k]) and math.isfinite(den[k]) and extra[k] >= FIT_WINDOW])
    positive = ratios[ratios > 0.0]
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    min_ratio = float(positive.min()) if positive.size else 0.0
    spread = max_ratio / min_ratio if min_ratio > 0 else math.inf
    values = dict(ratios=ratios, max_ratio=max_ratio, min_ratio=min_ratio, spread=spread)
    if not ratios.size:
        return CheckResult("skip", "no refinement pairs past the fit window", values)
    return _verdict(math.isfinite(max_ratio) and spread < 10.0,
                    f"max={max_ratio:.6g} spread={spread:.3g}", **values)
