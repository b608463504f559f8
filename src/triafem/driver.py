"""The adaptive loop, its trace and the reference build.

``run_afem`` iterates solve - estimate - mark - refine and records one row
per iteration in an :class:`AfemTrace`; with ``compute_reference`` it
also records every iterate's energy error, against the problem's declared
solution where it has one and against :func:`build_reference` otherwise.
The checks that read the trace are in :mod:`triafem.checks`.
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
    exact_energy_error,
    grad_norm_sq,
    solve_linear,
    solve_nonlinear,
    transfer,
    volume_samples,
)
from .estimator import estimate
from .marking import AllZeroIndicators, mark_binned, mark_min
from .mesh import audit_refinement, closure_audit, element_maps, refine_nvb, shape_regularity
from .problems import LinearProblem

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
# the columns that differ between two runs of one configuration
VARYING_COLUMNS = ("wall_time_s",)
_INT_COLUMNS = frozenset(("ell", "n_elements", "n_vertices", "n_marked", "n_refined"))
# uniform refinements of the final mesh that give the reference solution
REFERENCE_LEVELS = 3
# iteration cap of every run, on top of its own stopping rule
MAX_ITERATIONS = 200


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


def _solve_on(mesh, problem, samples, guess=None):
    """The solution on one mesh from the problem's ``samples`` there, a
    nonlinear problem's from ``guess`` (a solution on ``mesh``)."""
    if isinstance(problem, LinearProblem):
        return solve_linear(assemble_linear(mesh, samples))
    return solve_nonlinear(mesh, problem, samples, initial_guess=guess)[0]


def build_reference(problem, solutions, records):
    """Squared energy errors of the iterates ``solutions``, one float each,
    against the solution on ``REFERENCE_LEVELS`` uniform refinements of the
    last iterate's mesh: the errors of a problem that declares no solution,
    the last of them the run's noise floor. ``records`` are the refinements
    between the iterates' meshes, ``records[k]`` from that of
    ``solutions[k]`` to that of ``solutions[k + 1]``; records that do not
    chain them raise ``ValueError``. Their element maps, composed with that
    of the reference refinements after the solve, so that only the latter
    is held through the factor's peak, let :func:`energy_products` read
    each iterate on its own mesh. The reference solve and the energies read one
    :func:`volume_samples` of the reference mesh."""
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
    samples = volume_samples(ref_mesh, problem)
    if isinstance(problem, LinearProblem):
        reference = _solve_on(ref_mesh, problem, samples)
    else:
        # its bits reach only the error column, so it reuses one factor
        reference, _ = solve_nonlinear(
            ref_mesh, problem, samples, transfer(final, ref_mesh), frozen_factor=True)
    return energy_products(ref_mesh, problem, reference, solutions, samples,
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
    solution of every iteration in ``solutions``.

    ``compute_reference=True`` records the energy error of every iterate
    in ``err_energy_sq``, and the final iterate's as
    ``meta["noise_floor_err_sq"]``. A problem that declares ``exact_u``
    and ``exact_grad`` has each iterate measured against them in the loop,
    once its row is recorded, on its own mesh (:func:`exact_energy_error`);
    a failure there aborts the run in the phase ``reference``. Any other problem's
    run is followed by a reference solve on ``REFERENCE_LEVELS`` uniform
    refinements of the final mesh (:func:`build_reference`), and holds its
    iterates for that whether or not it returns them. The errors decide
    no mesh, so every other column is the same either way.
    ``initial_mesh`` overrides the problem's default, which lets several
    runs share one genealogy.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if marking not in ("min", "binned", "uniform"):
        raise ValueError(f"unknown marking variant {marking!r}")
    if max_elements is None and eta_tol is None:
        raise ValueError("need a stopping rule: max_elements or eta_tol")

    # a declared solution measures each iterate on its own mesh
    exact = compute_reference and problem.exact_u is not None and problem.exact_grad is not None
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
            sol = _solve_on(mesh, problem, samples, moved)
        if moved is not None:
            # the increment U_l - U_{l-1}, measured on the finer mesh
            with _phase("transfer"):
                rows[-1]["grad_diff_sq"] = grad_norm_sq(mesh, sol.values - moved.values)
                [dl_sq] = energy_products(mesh, problem, sol, [moved], samples)
                rows[-1]["energy_diff_sq"] = max(0.0, dl_sq)
        with _phase("estimate"):
            report = estimate(mesh, sol, problem, samples)
        row = dict.fromkeys(TRACE_COLUMNS, np.nan)
        row.update(ell=float(ell), n_elements=float(mesh.n_elements),
                   n_vertices=float(mesh.n_vertices), eta_sq=report.eta_sq_total,
                   osc_sq=report.osc_sq_total)
        rows.append(row)
        if exact:
            with _phase("reference"):
                row["err_energy_sq"] = max(0.0, exact_energy_error(mesh, problem, sol, samples))
        if keep_history or (compute_reference and not exact):
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
                gamma_max = max(gamma_max, shape_regularity(refined_mesh, record.new_elements))
            row.update(n_marked=float(len(record.marked)), n_refined=float(len(record.refined)),
                       refined_eta_sq=float(report.indicators_sq[record.refined].sum()))
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

    if compute_reference and not exact:
        with _phase("reference"):
            for row, err_sq in zip(rows, build_reference(problem, solutions, records)):
                row["err_energy_sq"] = max(0.0, err_sq)
    if compute_reference:
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
