"""Per-layer spans and counts, recorded from outside triafem.

The tracer wraps triafem's public functions where they are looked up: the
driver and the CLI bind their imports at load time, so a name is patched
in the module that calls it (``triafem.driver.refine_nvb``), not only in
the module that defines it. Spans (name, start, end, parent, run id, size)
and counts stay in memory until the run ends. A span's self time is its
duration minus the durations of its child spans; spans nest on one thread,
so the children never overlap.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

# per-layer self-time metrics: metric -> span names whose self times it sums
SELF_TIMES = {
    "mesh.refine_s": ("refine_nvb",),
    "mesh.audit_s": ("audit_refinement", "shape_regularity", "closure_audit"),
    "mesh.edge_table_s": ("edge_table",),
    "assembly.assemble_s": ("assemble_linear",),
    "assembly.solve_s": ("solve_linear",),
    "assembly.newton_s": ("solve_nonlinear",),
    "assembly.residual_s": ("nonlinear_residual",),
    "assembly.jacobian_s": ("nonlinear_jacobian",),
    "assembly.transfer_s": ("transfer",),
    "assembly.energy_s": ("energy_products",),
    "estimator.estimate_s": ("estimate",),
    "marking.mark_s": ("mark_min",),
    "driver.reference_s": ("build_reference",),
    "driver.loop_self_s": ("run_afem", "run_uniform"),
    "cli.write_s": ("write_mesh", "to_csv", "_write_plotdata"),
    "cli.checks_s": (
        "check_estimator_reduction",
        "check_rlinear",
        "check_quasi_orthogonality",
        "check_marking_optimality",
        "check_discrete_reliability",
        "check_convergence",
        "fit_rate",
    ),
}

# exponent p in t ~ N^p, fitted over the self times of one function's spans
EXPONENTS = {
    "mesh.refine_exponent": "refine_nvb",
    "mesh.audit_exponent": "audit_refinement",
    "assembly.assemble_exponent": "assemble_linear",
    "assembly.solve_exponent": "solve_linear",
    "estimator.estimate_exponent": "estimate",
}
EXPONENT_MIN_ELEMENTS = 10_000

# coefficient callables of LinearProblem / NonlinearProblem; each takes the
# sample points, shape (n, 2), as its first argument
COEFFICIENTS = (
    "diffusion", "source", "advection", "reaction", "diffusion_div",
    "flux", "flux_jacobian", "lower_order", "lower_order_du", "lower_order_dgrad",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run_id: int
    size: Optional[int]


class Tracer:
    """Records spans and counts of one run and owns the patches it made."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def timed(self, name, fn, size=None, after=None):
        """Wrap ``fn`` in a span; ``after(result, *args)`` runs once it ends."""

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        self.run_id, size(*args) if size else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owners, attr, **kwargs):
        """Replace ``attr`` on every owner by one timed wrapper of the original."""
        original = getattr(owners[0], attr)
        wrapper = self.timed(attr, original, **kwargs)
        for owner in owners:
            self.patch(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        child = np.zeros(len(self.spans))
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return np.array([s.end - s.start for s in self.spans]) - child

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)


def counted_problem(tracer, problem):
    """Copy of a frozen problem whose coefficient callables count samples."""

    def counting(field, fn):
        def wrapper(x, *args):
            tracer.counts["problems.coeff_points"] += x.shape[0]
            if field == "source":
                tracer.counts["problems.source_points"] += x.shape[0]
            return fn(x, *args)

        return wrapper

    wrapped = {
        f.name: counting(f.name, getattr(problem, f.name))
        for f in dataclasses.fields(problem)
        if f.name in COEFFICIENTS and getattr(problem, f.name) is not None
    }
    return dataclasses.replace(problem, **wrapped)


def install(tracer, prepared):
    """Patch triafem for one traced run of a prepared workload."""
    import triafem
    from triafem import assembly, cli, driver, mesh, quadrature

    counts = tracer.counts
    n_of = lambda m, *_: m.n_elements

    def add(name, amount=lambda *_: 1):
        def after(result, *args):
            counts[name] += amount(result, *args)

        return after

    def after_refine(result, old_mesh, marked):
        new_mesh, record = result
        counts["mesh.elements_created"] += (
            record.nt_after - record.nt_before + len(record.refined))
        counts["mesh.refined"] += len(record.refined)
        counts["mesh.marked"] += len(record.marked)
        tracer.timed("edge_table", lambda: new_mesh.edges)()

    tracer.wrap([driver, mesh], "refine_nvb", size=n_of, after=after_refine)
    tracer.wrap([driver], "audit_refinement", size=lambda old, new, rec: new.n_elements)
    tracer.wrap([driver], "shape_regularity")
    tracer.wrap([driver], "closure_audit")
    tracer.wrap([driver], "assemble_linear", size=n_of)
    tracer.wrap([driver], "solve_linear", size=lambda system, *_: system.mesh.n_elements,
                after=add("assembly.solve_unknowns", lambda sol, system, *_: system.rhs.size))
    tracer.wrap([driver], "solve_nonlinear")
    tracer.wrap([assembly], "nonlinear_residual", after=add("assembly.residual_evals"))
    tracer.wrap([assembly], "nonlinear_jacobian", after=add("assembly.jacobian_evals"))
    tracer.wrap([driver], "transfer", after=add("assembly.transfer_calls"))
    tracer.wrap([driver], "energy_products")
    tracer.wrap([driver], "estimate", size=n_of)
    tracer.wrap([driver], "mark_min", after=add("marking.marked", lambda res, *_: res.marked.size))
    tracer.wrap([driver], "build_reference")

    triangle_points = quadrature.triangle_points

    def counting_points(p0, p1, p2):
        counts["quadrature.points"] += p0.shape[0] * quadrature.TRI_WEIGHTS.size
        return triangle_points(p0, p1, p2)

    tracer.patch(quadrature, "triangle_points", counting_points)

    problem = counted_problem(tracer, prepared.problem)
    if prepared.workload.uses_cli:
        tracer.patch(cli, "builtin_problem", lambda name: problem)
        tracer.wrap([cli], "execute")
        tracer.wrap([cli], "run_afem")
        tracer.wrap([cli], "write_mesh")
        tracer.wrap([cli], "_write_plotdata")
        tracer.wrap([driver.AfemTrace], "to_csv")
        for name in SELF_TIMES["cli.checks_s"]:
            tracer.wrap([cli], name)
    else:
        prepared.problem = problem
        tracer.wrap([triafem], "run_uniform")


def _exponent(sizes, times):
    keep = (sizes >= EXPONENT_MIN_ELEMENTS) & (times > 0.0)
    if np.unique(sizes[keep]).size < 2:
        return 0.0
    return float(np.polyfit(np.log(sizes[keep]), np.log(times[keep]), 1)[0])


def layer_metrics(tracer, summary):
    """Per-layer self times, counts and exponents of one traced run."""
    selfs = tracer.self_times()
    names = np.array([s.name for s in tracer.spans])
    metrics = {}
    for metric, span_names in SELF_TIMES.items():
        metrics[metric] = float(selfs[np.isin(names, span_names)].sum())
    counts = tracer.counts
    elements = summary["elements_sum"]
    metrics["mesh.elements_created"] = counts["mesh.elements_created"]
    metrics["mesh.refined_per_marked"] = counts["mesh.refined"] / max(counts["mesh.marked"], 1)
    for name in ("assembly.solve_unknowns", "assembly.residual_evals",
                 "assembly.jacobian_evals", "assembly.transfer_calls",
                 "marking.marked", "problems.coeff_points"):
        metrics[name] = counts[name]
    metrics["problems.source_points_per_element"] = counts["problems.source_points"] / elements
    metrics["quadrature.points_per_element"] = counts["quadrature.points"] / elements
    metrics["driver.iterations"] = summary["iterations"]
    for metric, span_name in EXPONENTS.items():
        sel = names == span_name
        sizes = np.array([s.size for s, k in zip(tracer.spans, sel) if k], dtype=float)
        metrics[metric] = _exponent(sizes, selfs[sel])
    return metrics
