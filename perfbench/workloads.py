"""The benchmark's four fixed workloads and the correctness gate.

Every workload is deterministic: triafem never reads its ``seed``, so the
benchmark has no input seed and ``--seed`` only labels a run. Each workload
is split into a set-up phase (``import triafem``, CLI config parsing where
the CLI is used, building the problem and its initial mesh) and the timed
call. The timed call of a CLI workload is ``triafem.cli.execute`` on the
parsed config, which is ``triafem.cli.main`` minus its config parsing: it
runs the loop, the checks and writes every artefact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

LINEAR_CHECKS = (
    "estimator_reduction",
    "rlinear",
    "marking_optimality",
    "discrete_reliability",
    "mesh_audit",
    "rate",
)
REFERENCE_CHECKS = LINEAR_CHECKS + ("quasi_orthogonality",)

# relative tolerance on the final eta^2: runs are bit-reproducible on one
# machine, this leaves room for a reordered floating-point sum and nothing more
ETA_SQ_RTOL = 1e-6


@dataclass(frozen=True)
class Golden:
    """Recorded outcome of the unchanged program; the gate compares to it."""

    iterations: int
    final_elements: int
    eta_sq: float
    # checks that report SKIP on this budget; every other named check must PASS
    skipped: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    max_elements: int
    golden: Golden
    # CLI workloads name their checks; the uniform baseline calls run_uniform
    checks: tuple = ()

    @property
    def uses_cli(self):
        return bool(self.checks)

    def argv(self, out):
        return [
            "--problem", self.problem, "--theta", "0.5",
            "--max-elements", str(self.max_elements),
            "--checks", ",".join(self.checks), "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lshape_adaptive", "lshape_poisson", 20_000,
                 Golden(25, 24_196, 0.011060087573129103), LINEAR_CHECKS),
        Workload("lshape_uniform", "lshape_poisson", 40_000,
                 Golden(14, 49_152, 0.010452391754481462)),
        Workload("magnetostatics_reference", "magnetostatics_nl", 2_000,
                 Golden(19, 2_184, 0.19706787542183704), REFERENCE_CHECKS),
        Workload("convection_reference", "convection_diffusion", 2_000,
                 Golden(18, 2_046, 0.001556300275119422), REFERENCE_CHECKS),
    )
}

# the same workloads on a few hundred elements, for the smoke test
TINY_WORKLOADS = {
    w.name: w
    for w in (
        Workload("lshape_adaptive", "lshape_poisson", 300,
                 Golden(12, 348, 0.7123439468486634, ("rate",)), LINEAR_CHECKS),
        Workload("lshape_uniform", "lshape_poisson", 300,
                 Golden(7, 384, 0.694119875710049)),
        Workload("magnetostatics_reference", "magnetostatics_nl", 200,
                 Golden(12, 204, 2.1448149684171067, ("rate", "quasi_orthogonality")),
                 REFERENCE_CHECKS),
        Workload("convection_reference", "convection_diffusion", 200,
                 Golden(12, 266, 0.011092264634165735, ("rate", "quasi_orthogonality")),
                 REFERENCE_CHECKS),
    )
}


class Prepared:
    """A workload after set-up: ``run()`` is the timed call.

    ``run`` returns the CLI's exit code or the uniform run's trace;
    :func:`outcome_summary` reads the rest of the outcome back.
    """

    def __init__(self, workload, out):
        from triafem import builtin_problem

        self.workload = workload
        self.out = out
        if workload.uses_cli:
            from triafem import cli

            self.config = cli.parse_config(workload.argv(out))
        self.problem = builtin_problem(workload.problem)
        self.initial_mesh = self.problem.make_initial_mesh()

    def run(self):
        if self.workload.uses_cli:
            from triafem import cli

            return {"exit_code": cli.execute(self.config)}
        from triafem import run_uniform

        result = run_uniform(
            self.problem,
            max_elements=self.workload.max_elements,
            keep_history=False,
            initial_mesh=self.initial_mesh,
        )
        return {"trace": result.trace}


def outcome_summary(prepared, raw):
    """Read back what the gate needs: trace figures and check verdicts."""
    from triafem import AfemTrace

    summary = {}
    if prepared.workload.uses_cli:
        summary["exit_code"] = raw["exit_code"]
        trace = AfemTrace.from_csv(os.path.join(prepared.out, "trace.csv"))
        verdicts = {}
        with open(os.path.join(prepared.out, "report.txt")) as fh:
            for line in fh:
                if line.startswith("CHECK "):
                    name, rest = line[len("CHECK "):].split(":", 1)
                    verdicts[name] = rest.split()[0]
        summary["checks"] = verdicts
    else:
        trace = raw["trace"]
    summary["iterations"] = len(trace)
    summary["final_elements"] = int(trace.n_elements[-1])
    summary["eta_sq"] = float(trace.eta_sq[-1])
    summary["elements_sum"] = int(trace.n_elements.sum())
    return summary


def gate(workload, summary):
    """Reasons the outcome misses the recorded one; empty when it passes."""
    golden = workload.golden
    reasons = []
    if summary["iterations"] != golden.iterations:
        reasons.append(f"iterations {summary['iterations']} != {golden.iterations}")
    if summary["final_elements"] != golden.final_elements:
        reasons.append(f"final elements {summary['final_elements']} != {golden.final_elements}")
    if not math.isclose(summary["eta_sq"], golden.eta_sq, rel_tol=ETA_SQ_RTOL, abs_tol=0.0):
        reasons.append(f"final eta^2 {summary['eta_sq']!r} != {golden.eta_sq!r}")
    if workload.uses_cli:
        if summary["exit_code"] != 0:
            reasons.append(f"exit code {summary['exit_code']}")
        for name in workload.checks:
            verdict = summary["checks"].get(name)
            if verdict != ("SKIP" if name in golden.skipped else "PASS"):
                reasons.append(f"check {name}: {verdict}")
    return reasons
