"""The adaptive loop and the empirical verification checkers.

``run_afem`` iterates solve - estimate - mark - refine and records one row
per iteration. The checkers are pure functions of the recorded trace and
its ``meta`` (estimator reduction, R-linear decay, quasi-orthogonality,
marking optimality, discrete reliability, convergence, mesh audit), and
each returns a :class:`CheckResult` that holds its verdict; ``fit_rate``
fits the log-log rate.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assembly import (
    DiscreteSolution,
    assemble_linear,
    energy_products,
    grad_norm_sq,
    solve_linear,
    solve_nonlinear,
    transfer,
    volume_samples,
)
from .estimator import estimate, local_sum
from .marking import AllZeroIndicators, mark_binned, mark_min
from .mesh import audit_refinement, closure_audit, element_maps, refine_nvb, shape_regularity
from .problems import LinearProblem, check_ellipticity

TRACE_COLUMNS = (
    "ell",
    "n_elements",
    "n_vertices",
    "n_marked",
    "n_refined",
    "eta_sq",
    "osc_sq",
    "refined_eta_sq",
    "grad_diff_sq",
    "energy_diff_sq",
    "err_energy_sq",
    "wall_time_s",
)
_INT_COLUMNS = frozenset(("ell", "n_elements", "n_vertices", "n_marked", "n_refined"))
# uniform refinements of the final mesh that give the reference solution
REFERENCE_LEVELS = 3
# iteration cap of every run, on top of its own stopping rule
MAX_ITERATIONS = 200
# extra elements over the initial mesh from which the fits read a trace:
# the steps before are preasymptotic
FIT_WINDOW = 100


class AfemRunError(RuntimeError):
    """A phase of the loop failed mid-run.

    ``phase`` names it (solve, transfer, estimate, mark, refine, audit or
    reference) and ``trace`` holds the partial record.
    """

    def __init__(self, message, trace, phase):
        super().__init__(message)
        self.trace = trace
        self.phase = phase


@dataclass
class AfemTrace:
    """Per-iteration record of one adaptive (or uniform) run.

    All columns are float arrays of equal length; count columns hold NaN
    where a quantity does not exist (for example the marked count of the
    final iteration). ``meta`` carries run parameters and derived run
    constants.
    """

    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if set(self.columns) != set(TRACE_COLUMNS) or len(lengths) != 1:
            raise ValueError("trace requires all columns at one common length")

    def __len__(self):
        return len(self.columns["ell"])

    def __getattr__(self, name):
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def to_csv(self, path):
        lines = [",".join(TRACE_COLUMNS)]
        for k in range(len(self)):
            cells = []
            for name in TRACE_COLUMNS:
                v = float(self.columns[name][k])
                if name in _INT_COLUMNS and math.isfinite(v):
                    cells.append(str(int(v)))
                else:
                    cells.append(repr(v))
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, meta=None):
        """Read :meth:`to_csv`'s file; a bad row raises ``ValueError("line N: ...")``."""
        with open(path) as fh:
            rows = [(k, line.strip().split(",")) for k, line in enumerate(fh, 1) if line.strip()]
        if not rows:
            raise ValueError("empty trace file")
        if tuple(rows[0][1]) != TRACE_COLUMNS:
            raise ValueError("unexpected trace header")
        data = np.empty((len(rows) - 1, len(TRACE_COLUMNS)))
        for out, (lineno, row) in zip(data, rows[1:]):
            try:
                if len(row) != out.size:
                    raise ValueError(f"a trace row needs {out.size} fields, got {len(row)}")
                out[:] = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        columns = {name: data[:, i].copy() for i, name in enumerate(TRACE_COLUMNS)}
        return cls(columns=columns, meta=dict(meta or {}))


@dataclass
class AfemResult:
    """One run: its trace, the last solution (its mesh is the final mesh),
    the record of every refinement and, with ``keep_history``, every solution."""

    trace: AfemTrace
    final_solution: DiscreteSolution
    records: list
    solutions: Optional[list] = None


def _solve_on(mesh, problem, guess=None, samples=None):
    """Solve on one mesh, a nonlinear problem from ``guess`` (a solution on
    ``mesh``), reading the problem's ``samples`` on ``mesh`` when given;
    returns (solution, system-or-None)."""
    if isinstance(problem, LinearProblem):
        system = assemble_linear(mesh, problem, samples)
        return solve_linear(system), system
    return solve_nonlinear(mesh, problem, initial_guess=guess, samples=samples), None


def build_reference(problem, solutions, records):
    """Squared energy errors of the iterates ``solutions``, one float each,
    against the solution on ``REFERENCE_LEVELS`` uniform refinements of the
    last iterate's mesh. ``records`` are the refinements between the
    iterates' meshes, ``records[k]`` from that of ``solutions[k]`` to that
    of ``solutions[k + 1]``; records that do not chain them raise
    ``ValueError``. Their element maps, composed with that of the
    reference refinements after the solve, so that only the latter is held
    through the factor's peak, let :func:`energy_products` read each
    iterate on its own mesh."""
    if len(records) != len(solutions) - 1 or not all(
            record.joins(coarse.mesh, fine.mesh)
            for record, coarse, fine in zip(records, solutions, solutions[1:])):
        raise ValueError("the records do not chain the iterates' meshes")
    final = solutions[-1]
    # per reference element, the element of the final mesh that holds it
    ref_mesh, cover = final.mesh, np.arange(final.mesh.n_elements)
    for _ in range(REFERENCE_LEVELS):
        ref_mesh, record = refine_nvb(ref_mesh, np.arange(ref_mesh.n_elements))
        cover = cover[record.parents]
    del record  # not held through the solve
    if isinstance(problem, LinearProblem):
        reference, system = _solve_on(ref_mesh, problem)
    else:
        # its bits reach only the error column, so it reuses one factor
        reference, system = solve_nonlinear(
            ref_mesh, problem, transfer(final, ref_mesh), frozen_factor=True), None
    return energy_products(ref_mesh, problem, reference, solutions, system=system,
                           parents=element_maps(records, cover))


def _mark(marking, report, theta):
    """Indices of the elements that the variant ``marking`` marks."""
    if marking == "min":
        return mark_min(report.indicators_sq, theta).marked
    if marking == "binned":
        return mark_binned(report.indicators_sq, theta).marked
    return np.arange(report.indicators_sq.shape[0])


def _rows_to_trace(rows, meta):
    columns = {
        name: np.array([row[name] for row in rows], dtype=float) for name in TRACE_COLUMNS
    }
    return AfemTrace(columns=columns, meta=dict(meta))


def run_afem(problem, theta, max_elements=None, eta_tol=None, marking="min",
             keep_history=True, compute_reference=False, initial_mesh=None):
    """Adaptive run, solve - estimate - mark - refine; returns an
    :class:`AfemResult`.

    ``marking`` is ``"min"`` (minimal Doerfler set), ``"binned"`` (binned
    Doerfler set) or ``"uniform"`` (every element, whatever ``theta``).
    Stops when the estimator drops below ``eta_tol``, the mesh reaches
    ``max_elements``, the indicators vanish or after ``MAX_ITERATIONS``
    refinements. Every refinement is audited. ``keep_history`` keeps the
    solution of every iteration in ``solutions``. With
    ``compute_reference=True`` the run is followed by a reference solve on
    ``REFERENCE_LEVELS`` uniform refinements of the final mesh and the
    energy errors of all iterates are recorded; the run holds its iterates
    for that whether or not it returns them. ``initial_mesh`` overrides
    the problem's default, which lets several runs share one genealogy.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if marking not in ("min", "binned", "uniform"):
        raise ValueError(f"unknown marking variant {marking!r}")
    if max_elements is None and eta_tol is None:
        raise ValueError("need a stopping rule: max_elements or eta_tol")
    if isinstance(problem, LinearProblem):
        check_ellipticity(problem)

    mesh = problem.make_initial_mesh() if initial_mesh is None else initial_mesh
    gamma0 = shape_regularity(mesh)
    gamma_max = gamma0
    rows = []
    records = []
    solutions = []
    # (coarse mesh, its samples, refinement record) of the last refinement
    carry = None

    @contextmanager
    def _phase(name):
        try:
            yield
        except Exception as exc:
            meta["aborted"] = str(exc)
            raise AfemRunError(
                f"{name} failed at iteration {ell}: {exc}", _rows_to_trace(rows, meta), name
            ) from exc

    meta = {
        "problem": problem.name,
        "theta": theta,
        "marking": marking,
        "stop_max_elements": max_elements,
        "stop_eta_tol": eta_tol,
        "n_initial_elements": mesh.n_elements,
        "gamma_initial": gamma0,
    }

    for ell in range(MAX_ITERATIONS + 1):
        tic = time.perf_counter()
        moved = None
        if ell:  # the last iterate, prolonged: Newton's guess and the increment's base
            with _phase("transfer"):
                moved = transfer(sol, mesh)
        with _phase("solve"):
            samples, carry = volume_samples(mesh, problem, carry), None
            sol, system = _solve_on(mesh, problem, moved, samples)
        if moved is not None:
            # the increment U_l - U_{l-1}, measured on the finer mesh
            with _phase("transfer"):
                rows[-1]["grad_diff_sq"] = grad_norm_sq(mesh, sol.values - moved.values)
                [dl_sq] = energy_products(mesh, problem, sol, [moved], system=system)
                rows[-1]["energy_diff_sq"] = max(0.0, dl_sq)
        with _phase("estimate"):
            report = estimate(mesh, sol, problem, samples)
        row = dict.fromkeys(TRACE_COLUMNS, np.nan)
        row.update(ell=float(ell), n_elements=float(mesh.n_elements),
                   n_vertices=float(mesh.n_vertices), eta_sq=report.eta_sq_total,
                   osc_sq=report.osc_sq_total)
        rows.append(row)
        if keep_history or compute_reference:
            solutions.append(sol)

        stop = (
            (eta_tol is not None and math.sqrt(report.eta_sq_total) <= eta_tol)
            or (max_elements is not None and mesh.n_elements >= max_elements)
            or ell == MAX_ITERATIONS
        )
        if not stop:
            with _phase("mark"):
                try:
                    marked = _mark(marking, report, theta)
                except AllZeroIndicators:
                    stop = True
        if not stop:
            with _phase("refine"):
                refined_mesh, record = refine_nvb(mesh, marked)
            records.append(record)
            with _phase("audit"):
                audit_refinement(mesh, refined_mesh, record)
                # kept elements were measured on an earlier mesh: only the new ones
                new_elements = slice(record.nt_before - len(record.refined), None)
                gamma_max = max(gamma_max, shape_regularity(refined_mesh, new_elements))
            row.update(n_marked=float(len(record.marked)), n_refined=float(len(record.refined)),
                       refined_eta_sq=local_sum(report, record.refined))
        row["wall_time_s"] = time.perf_counter() - tic
        if stop:
            break
        # carried through refinement: the next mesh samples only its new elements
        carry = (mesh, samples, record)
        mesh = refined_mesh

    del samples  # dropped before the reference build
    meta["gamma_max"] = gamma_max
    if records:
        meta["closure_constant"] = closure_audit(records)

    if compute_reference:
        with _phase("reference"):
            for row, err_sq in zip(rows, build_reference(problem, solutions, records)):
                row["err_energy_sq"] = max(0.0, err_sq)
        meta["noise_floor_err_sq"] = rows[-1]["err_energy_sq"]

    return AfemResult(
        trace=_rows_to_trace(rows, meta),
        final_solution=sol,
        records=records,
        solutions=solutions if keep_history else None,
    )


def run_uniform(problem, max_elements=None, eta_tol=None, keep_history=True, initial_mesh=None):
    """Uniform-refinement baseline: :func:`run_afem` with every element
    marked in every step (``marking="uniform"``, ``theta`` 1)."""
    return run_afem(problem, 1.0, max_elements, eta_tol, marking="uniform",
                    keep_history=keep_history, initial_mesh=initial_mesh)


# -- checkers -------------------------------------------------------------------

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


def _verdict(passed, detail, **values):
    return CheckResult("pass" if passed else "fail", detail, values)


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


def check_rlinear(trace):
    """Geometric envelope eta_{l+k}^2 <= C q^k eta_l^2 over all pairs.

    The slope of a least-squares fit of log eta^2 gives the rate q; the
    check fails when that rate is not below one (stagnation) or when no
    q < 1 at or above it keeps the envelope constant within 100.
    A finite trace always admits *some* q < 1 at C = 100, so the fitted
    rate, not bare envelope feasibility, carries the pass decision.
    """
    if len(trace) < 5:
        raise ValueError("R-linear check needs a trace of length >= 5")

    def verdict(passed, q_fit, c_fit):
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
        return verdict(False, q_ls, math.exp(float(np.max(max_gap))))
    if log_c(q_ls) <= log_cap:
        return verdict(True, q_ls, math.exp(log_c(q_ls)))
    lo, hi = q_ls, 1.0 - 1e-12
    if log_c(hi) > log_cap:
        return verdict(False, 1.0, math.exp(log_c(hi)))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_c(mid) <= log_cap:
            hi = mid
        else:
            lo = mid
    return verdict(True, hi, math.exp(log_c(hi)))


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float
    window: np.ndarray

    @property
    def rate(self):
        """Observed s in eta ~ (#elements - #initial)^(-s)."""
        return -self.slope


def fit_rate(trace):
    """Least-squares slope of log eta against log(#elements - #initial).

    The window drops the preasymptotic iterations with fewer than
    ``FIT_WINDOW`` extra elements.
    """
    eta = np.sqrt(trace.eta_sq)
    extra = trace.n_elements - trace.n_elements[0]
    idx = np.nonzero((extra >= FIT_WINDOW) & (eta > 0.0))[0]
    if idx.size < 6:
        raise ValueError("rate fit needs at least 6 points in the window")
    x = np.log(extra[idx])
    y = np.log(eta[idx])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept), residual=resid, window=idx)


def check_quasi_orthogonality(trace, epsilon):
    """First index ``ell0`` from which the quasi-Pythagoras inequality
    always holds.

    Checks ``|U_{l+1} - U_l|^2 <= E_l^2 / (1 - eps) - E_{l+1}^2`` in the
    recorded energy (or nonlinear quasi-metric) against the reference
    solution, using only iterations whose error exceeds 10 times the
    reference noise floor, the final iterate's error (``meta.json`` copies
    it as ``noise_floor_err_sq``), so a trace read back from its file gets
    the same verdict. Skips when no step is usable and passes when no
    usable step fails. ``epsilon = 0`` asks for the exact Pythagoras
    identity; on non-symmetric problems the result then lists the failing
    steps.
    """
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


@dataclass(frozen=True)
class MarkingOptimalityRow:
    ell: int
    q_d: float
    applicable: bool
    passed: bool


def check_marking_optimality(trace, q_values=(0.5, 0.7, 0.9)):
    """Doerfler-optimality implication table (refined set carries theta).

    For each step where the estimator contracted by at least a factor
    ``q_d``, checks that the indicators of the refined elements reach the
    theta fraction of the total; steps without that much contraction are
    vacuously passing and reported as not applicable. Theta is the run's,
    ``trace.meta["theta"]``. The result keeps one
    :class:`MarkingOptimalityRow` per step and ``q_d`` in ``.rows``.
    """
    theta = trace.meta.get("theta")
    if theta is None:
        raise ValueError("marking optimality needs the run's theta")
    _needs_refinement(trace)
    rows = []
    eta = trace.eta_sq
    refined = trace.refined_eta_sq
    for k in range(len(trace) - 1):
        if not math.isfinite(refined[k]):
            continue
        for q_d in q_values:
            applicable = eta[k + 1] <= q_d * eta[k]
            ok = (not applicable) or refined[k] >= theta * eta[k] * (1.0 - 1e-12)
            rows.append(MarkingOptimalityRow(ell=k, q_d=q_d, applicable=applicable, passed=ok))
    failing = sum(1 for r in rows if not r.passed)
    applicable = sum(1 for r in rows if r.applicable)
    return _verdict(not failing, f"applicable={applicable} failing={failing}", rows=tuple(rows))


def check_discrete_reliability(trace):
    """Per-step ratios |grad(U_{l+1} - U_l)|^2 / sum of refined indicators
    over the steps from ``FIT_WINDOW`` extra elements on.

    Skips when there is no such step and passes when the largest ratio is
    finite and the spread, largest over smallest positive ratio, is
    below 10.
    """
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


def check_convergence(trace, factor=100.0):
    """Final estimator must drop below the initial one by ``factor``."""
    _needs_refinement(trace)
    eta0 = math.sqrt(trace.eta_sq[0])
    eta_last = math.sqrt(trace.eta_sq[-1])
    reduction = math.inf if eta0 == 0.0 else eta0 / max(eta_last, 1e-300)
    return _verdict(eta0 == 0.0 or eta_last <= eta0 / factor, f"reduction={reduction:.6g}",
                    reduction=reduction)


def check_mesh_audit(trace):
    """Shape regularity and closure of the run's refinements, read from
    ``trace.meta``: passes when ``gamma_max <= 2 gamma_initial`` and the
    closure constant is at most 20."""
    _needs_refinement(trace)
    gamma0, gamma_max, closure = (
        trace.meta[key] for key in ("gamma_initial", "gamma_max", "closure_constant"))
    return _verdict(gamma_max <= 2.0 * gamma0 and closure <= 20.0,
                    f"gamma0={gamma0:.4g} gamma_max={gamma_max:.4g} closure={closure:.4g}",
                    gamma0=gamma0, gamma_max=gamma_max, closure=closure)
