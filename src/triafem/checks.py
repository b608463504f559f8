"""The empirical verification checks of a recorded adaptive run.

Each ``check_*`` is a pure function of an :class:`~triafem.driver.AfemTrace`
and its ``meta`` that returns a :class:`CheckResult` holding its verdict,
and so does ``fit_rate``, which fits the log-log rate. Estimator
reduction, quasi-orthogonality, marking optimality and discrete
reliability take their per-step values over the trace's columns at once,
and R-linear decay its smallest admissible rate in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# extra elements over the initial mesh from which the fits read a trace:
# the steps before are preasymptotic
FIT_WINDOW = 100
# the q_d of check_marking_optimality, the factor of check_convergence
MARKING_Q_VALUES = (0.5, 0.7, 0.9)
CONVERGENCE_FACTOR = 100.0
# the largest x whose math.exp does not overflow
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one check: ``status`` is ``"pass"``, ``"fail"`` or
    ``"skip"``, ``detail`` the text that ``report.txt`` prints after it, and
    the numbers in ``values`` read as attributes (``fit.q_fit``)."""

    status: str
    detail: str
    values: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status == "pass"

    def __getattr__(self, name):
        try:
            return self.__dict__["values"][name]
        except KeyError:
            raise AttributeError(name) from None


def _verdict(passed, detail, /, **values):
    return CheckResult("pass" if passed else "fail", detail, values)


def _nonfinite_estimator(trace):
    """A failing result naming the first row whose eta^2 is NaN or
    infinite, or None: such a row fails every check that reads eta^2."""
    rows = np.flatnonzero(~np.isfinite(trace.eta_sq))
    return CheckResult("fail", f"non-finite eta_sq in row {rows[0]}") if rows.size else None


def _needs_refinement(trace):
    # every row after the first is the mesh of one refinement step
    if len(trace) < 2:
        raise ValueError("the trace has no refinement step")


def check_estimator_reduction(trace):
    """Fit (q, C) with eta_{l+1}^2 <= q eta_l^2 + C |grad diff|^2 per step.

    ``q_fit`` is the smallest q that works with C bounded by 1e6;
    steps that no q < 1 can satisfy even at the cap are violations. Passes
    without violations and with ``q_fit < 1``.
    """
    if len(trace) < 3:
        raise ValueError("estimator reduction needs a trace of length >= 3")
    if failed := _nonfinite_estimator(trace):
        return failed
    eta, after = trace.eta_sq[:-1], trace.eta_sq[1:]
    diff = np.where(np.isfinite(trace.grad_diff_sq), trace.grad_diff_sq, 0.0)[:-1]
    slack = after - 1e6 * diff
    positive = eta > 0.0
    q_needed = np.divide(slack, eta, out=np.zeros_like(slack), where=positive)
    violations = np.flatnonzero(np.where(positive, q_needed >= 1.0, slack > 0.0)).tolist()
    q_fit = max([0.0, *q_needed[positive].tolist()])
    moved = diff > 0.0
    c_fit = max([0.0, *((after[moved] - q_fit * eta[moved]) / diff[moved]).tolist()])
    return _verdict(not violations and q_fit < 1.0,
                    f"q_fit={q_fit:.6g} C_fit={c_fit:.6g} violations={violations}",
                    q_fit=q_fit, c_fit=c_fit, violations=tuple(violations))


def check_rlinear(trace):
    """Geometric envelope eta_{l+k}^2 <= C q^k eta_l^2 over all pairs.

    The slope of a least-squares fit of log eta^2 gives the rate q; the
    check fails when that rate is not below one (stagnation) or when no
    q < 1 at or above it keeps the envelope constant within 100.
    A finite trace always admits *some* q < 1 at C = 100, so the fitted
    rate, not bare envelope feasibility, carries the pass decision. With
    G_k the largest k-step growth of log eta^2, the envelope constant at q
    is ``max_k exp(G_k - k log q)``, so the smallest q that keeps it
    within 100 is ``exp(max_k (G_k - log 100) / k)``.
    """
    if len(trace) < 5:
        raise ValueError("R-linear check needs a trace of length >= 5")
    if failed := _nonfinite_estimator(trace):
        return failed

    def verdict(passed, q_fit, log_c_fit):
        # C_fit is +inf past the float range, where math.exp raises
        c_fit = math.exp(log_c_fit) if log_c_fit <= _LOG_FLOAT_MAX else math.inf
        return _verdict(passed, f"q_fit={q_fit:.6g} C_fit={c_fit:.6g}", q_fit=q_fit, c_fit=c_fit)

    eta2 = trace.eta_sq
    pos = eta2 > 0.0
    if not pos.all():
        # a trailing zero estimator is a converged run; pairs into the zero
        # tail hold for any q, pairs out of it would be infinite
        first_zero = int(np.argmin(pos))
        if np.any(eta2[first_zero:] > 0.0):
            return verdict(False, 1.0, math.inf)
        eta2 = eta2[:first_zero]
        if eta2.size < 3:
            return verdict(True, 0.0, 0.0)
    y = np.log(eta2)
    slope = np.polyfit(np.arange(y.size), y, 1)[0]
    q_ls = float(np.exp(slope))

    # max_gap[k - 1] = G_k, the largest y[l + k] - y[l]; y has no -inf
    ks = np.arange(1, y.size)
    padded = np.concatenate([y, np.full(y.size, -np.inf)])
    max_gap = (padded[np.arange(y.size)[:, None] + ks] - y[:, None]).max(axis=0)

    def log_c(q):
        return float(np.max(max_gap - ks * math.log(q)))

    log_cap = math.log(100.0)
    if q_ls >= 1.0:
        return verdict(False, q_ls, float(np.max(max_gap)))
    if log_c(q_ls) <= log_cap:
        return verdict(True, q_ls, log_c(q_ls))
    if log_c(1.0 - 1e-12) > log_cap:
        return verdict(False, 1.0, log_c(1.0 - 1e-12))
    q_min = math.exp(float(np.max((max_gap - log_cap) / ks)))
    return verdict(True, q_min, log_c(q_min))


def fit_rate(trace):
    """Least-squares slope of log eta against log(#elements - #initial).

    Passes with the observed ``rate`` s in eta ~ (#elements - #initial)^(-s)
    and the root mean square ``residual`` of the log-log fit. The window
    drops the preasymptotic iterations with fewer than ``FIT_WINDOW`` extra
    elements. A NaN or infinite eta^2 raises.
    """
    if failed := _nonfinite_estimator(trace):
        raise ValueError(failed.detail)
    eta = np.sqrt(trace.eta_sq)
    extra = trace.n_elements - trace.n_elements[:1]
    idx = np.nonzero((extra >= FIT_WINDOW) & (eta > 0.0))[0]
    if idx.size < 6:
        raise ValueError("rate fit needs at least 6 points in the window")
    x = np.log(extra[idx])
    y = np.log(eta[idx])
    slope, intercept = np.polyfit(x, y, 1)
    rate = -float(slope)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return _verdict(True, f"rate={rate:.4f} residual={residual:.3g}",
                    rate=rate, residual=residual)


def check_quasi_orthogonality(trace, epsilon):
    """First index ``ell0`` from which the quasi-Pythagoras inequality
    always holds.

    Checks ``|U_{l+1} - U_l|^2 <= E_l^2 / (1 - eps) - E_{l+1}^2`` in the
    recorded energy (or nonlinear quasi-metric), against the declared
    solution or the reference solution (:func:`~triafem.driver.run_afem`),
    using only iterations whose error exceeds 10 times the noise floor,
    the final iterate's error from either source (``meta.json`` copies it
    as ``noise_floor_err_sq``), so a trace read back from its file gets
    the same verdict. Skips when no step is usable and passes when no
    usable step fails. ``epsilon = 0`` asks for the exact Pythagoras
    identity; on non-symmetric problems the result then lists the failing
    steps.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    err = trace.err_energy_sq
    if not np.any(np.isfinite(err)):
        raise ValueError("trace has no reference energies; run with compute_reference")
    floor = 10.0**2 * err[-1]
    before, after, diff = err[:-1], err[1:], trace.energy_diff_sq[:-1]
    # a NaN floor leaves every finite step usable
    usable = np.flatnonzero(np.isfinite(before) & np.isfinite(after) & np.isfinite(diff)
                            & ~(before <= floor) & ~(after <= floor))
    slack = before[usable] / (1.0 - epsilon) - after[usable] - diff[usable]
    failures = usable[slack < 0.0].tolist()
    ell0 = (max(failures) + 1) if failures else 0
    values = dict(ell0=ell0, failures=tuple(failures), usable=tuple(usable.tolist()),
                  slack=dict(zip(usable.tolist(), slack.tolist())))
    if not usable.size:
        return CheckResult("skip", "no iterations above the reference noise floor", values)
    return _verdict(not failures, f"epsilon={epsilon} ell0={ell0} failures={failures} "
                    f"usable={usable.size}", **values)


def check_marking_optimality(trace):
    """Doerfler-optimality implication table (refined set carries theta).

    For each step where the estimator contracted by at least a factor
    ``q_d`` of ``MARKING_Q_VALUES``, checks that the indicators of the
    refined elements reach the theta fraction of the total; steps without
    that much contraction are vacuously passing and reported as not
    applicable. Theta is the run's, ``trace.meta["theta"]``. The result's
    ``values`` hold ``ell``, the steps with a finite refined sum, and
    boolean arrays ``applicable`` and ``passed`` of shape (steps,
    ``len(MARKING_Q_VALUES)``); ``.passed`` stays the verdict.
    """
    theta = trace.meta.get("theta")
    if theta is None:
        raise ValueError("marking optimality needs the run's theta")
    _needs_refinement(trace)
    if failed := _nonfinite_estimator(trace):
        return failed
    eta, refined = trace.eta_sq, trace.refined_eta_sq[:-1]
    ell = np.flatnonzero(np.isfinite(refined))
    applicable = eta[ell + 1, None] <= np.array(MARKING_Q_VALUES) * eta[ell, None]
    reached = refined[ell] >= (theta * eta[ell]) * (1.0 - 1e-12)
    passed = ~applicable | reached[:, None]
    failing = np.count_nonzero(~passed)
    return _verdict(not failing, f"applicable={np.count_nonzero(applicable)} failing={failing}",
                    ell=ell, applicable=applicable, passed=passed)


def check_discrete_reliability(trace):
    """Per-step ratios |grad(U_{l+1} - U_l)|^2 / sum of refined indicators
    over the steps from ``FIT_WINDOW`` extra elements on; a step whose
    refined indicators sum to zero has ratio 0.

    Skips when there is no such step and passes when the largest ratio is
    finite and the spread, largest over smallest positive ratio, is
    below 10.
    """
    num, den = trace.grad_diff_sq[:-1], trace.refined_eta_sq[:-1]
    extra = (trace.n_elements - trace.n_elements[:1])[:-1]
    steps = np.isfinite(num) & np.isfinite(den) & (extra >= FIT_WINDOW)
    ratios = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)[steps]
    positive = ratios[ratios > 0.0]
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    min_ratio = float(positive.min()) if positive.size else 0.0
    spread = max_ratio / min_ratio if min_ratio > 0 else math.inf
    values = dict(ratios=ratios, max_ratio=max_ratio, min_ratio=min_ratio, spread=spread)
    if not ratios.size:
        return CheckResult("skip", "no refinement pairs past the fit window", values)
    return _verdict(math.isfinite(max_ratio) and spread < 10.0,
                    f"max={max_ratio:.6g} spread={spread:.3g}", **values)


def check_convergence(trace):
    """Final estimator must drop below the initial one by ``CONVERGENCE_FACTOR``."""
    _needs_refinement(trace)
    if failed := _nonfinite_estimator(trace):
        return failed
    eta0 = math.sqrt(trace.eta_sq[0])
    eta_last = math.sqrt(trace.eta_sq[-1])
    reduction = math.inf if eta0 == 0.0 else eta0 / max(eta_last, 1e-300)
    return _verdict(eta0 == 0.0 or eta_last <= eta0 / CONVERGENCE_FACTOR,
                    f"reduction={reduction:.6g}", reduction=reduction)


def check_mesh_audit(trace):
    """Shape regularity and closure of the run's refinements, read from
    ``trace.meta``: passes when ``gamma_max <= 2 gamma_initial`` and the
    closure constant is at most 20."""
    _needs_refinement(trace)
    keys = ("gamma_initial", "gamma_max", "closure_constant")
    if missing := [key for key in keys if key not in trace.meta]:
        raise ValueError(f"mesh audit needs the run's {', '.join(missing)}")
    gamma0, gamma_max, closure = (trace.meta[key] for key in keys)
    return _verdict(gamma_max <= 2.0 * gamma0 and closure <= 20.0,
                    f"gamma0={gamma0:.4g} gamma_max={gamma_max:.4g} closure={closure:.4g}",
                    gamma0=gamma0, gamma_max=gamma_max, closure=closure)
