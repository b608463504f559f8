"""Batch entry point: configure a run or sweep from flags, execute, emit
artifacts. A theta sweep runs one value after another in this process.

Outputs per run directory: ``trace.csv`` (one row per iteration),
``meta.json`` (configuration and run constants), ``report.txt`` (fitted
constants and per-check verdicts), ``failures.json`` (machine-readable
failing checks; empty list iff exit code 0), ``plotdata.csv`` (log-log
columns for the estimator decay) plus ``plot_traces.py``, a standalone
plotting script, and the initial and final meshes under ``meshes/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import math
import os
import sys
from dataclasses import dataclass

from .checks import (
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
from .driver import AfemRunError, run_afem, run_uniform
from .mesh import write_mesh
from .problems import builtin_names, builtin_problem

DEFAULT_CHECKS = (
    "estimator_reduction",
    "rlinear",
    "marking_optimality",
    "discrete_reliability",
    "mesh_audit",
)
# every file a run writes into its directory
ARTEFACTS = ("trace.csv", "trace_uniform.csv", "meta.json", "report.txt", "failures.json",
             "plotdata.csv", "plot_traces.py", "meshes/initial.mesh", "meshes/final.mesh")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# -- checks: name -> function of (result, config, uniform_result) returning
# a CheckResult; each looks its checker up in this module when it runs

def _rate(result, config, uniform_result):
    fit = fit_rate(result.trace)
    if uniform_result is None:
        return fit
    try:
        uniform = f"{fit_rate(uniform_result.trace).rate:.4f}"
    except ValueError as exc:
        uniform = f"skipped ({exc})"
    return dataclasses.replace(fit, detail=f"{fit.detail} uniform_rate={uniform}")


CHECKS = {
    "estimator_reduction": lambda result, *_: check_estimator_reduction(result.trace),
    "rlinear": lambda result, *_: check_rlinear(result.trace),
    "rate": _rate,
    "quasi_orthogonality": lambda result, config, _: check_quasi_orthogonality(
        result.trace, config.qo_epsilon),
    "marking_optimality": lambda result, *_: check_marking_optimality(result.trace),
    "discrete_reliability": lambda result, *_: check_discrete_reliability(result.trace),
    "convergence": lambda result, *_: check_convergence(result.trace),
    "mesh_audit": lambda result, *_: check_mesh_audit(result.trace),
}


# -- configuration keys: each parser turns the raw text of a flag into the
# field value, or raises ValueError

def _problem(raw):
    if raw not in builtin_names():
        raise ValueError(f"unknown problem {raw!r}; known: {', '.join(builtin_names())}")
    return raw


def _theta(raw):
    values = tuple(float(part) for part in raw.split(","))
    for value in values:
        if not 0.0 < value <= 1.0:
            raise ValueError(f"value {value} outside (0, 1]")
    names = [_sweep_dir(value) for value in values]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ValueError(f"values share the sweep directory {', '.join(shared)}")
    return values


def _marking(raw):
    if raw not in ("min", "binned"):
        raise ValueError(f"unknown marking {raw!r}; known: min, binned")
    return raw


def _at_least_one(raw):
    value = int(raw)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _eta_tol(raw):
    value = float(raw)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _checks(raw):
    checks = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; known: {', '.join(CHECKS)}")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        raise ValueError(f"checks named more than once: {', '.join(repeated)}")
    return checks


def _qo_epsilon(raw):
    value = float(raw)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"value {value} outside [0, 1)")
    return value


def _key(parse, default=dataclasses.MISSING, **flag):
    """A configuration key: its parser, its default and its argparse options."""
    return dataclasses.field(default=default, metadata={"parse": parse, "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    """One run or theta sweep.

    Every field is a key, set by the flag ``--<key with dashes>`` and
    read by the key's parser.
    """

    problem: str = _key(_problem, help=f"one of: {', '.join(builtin_names())}")
    theta: tuple = _key(_theta, (0.5,), help="marking parameter in (0, 1]; comma list sweeps")
    marking: str = _key(_marking, "min", help="min or binned")
    max_elements: int | None = _key(_at_least_one, None)
    eta_tol: float | None = _key(_eta_tol, None)
    checks: tuple = _key(_checks, DEFAULT_CHECKS, help=f"comma list from: {', '.join(CHECKS)}")
    out: str = _key(str, "afem_out")
    uniform_baseline: bool = _key(bool, False, action="store_true")
    qo_epsilon: float = _key(_qo_epsilon, 0.5)


_KEYS = {f.name: f.metadata for f in dataclasses.fields(RunConfig)}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="triafem",
        description="Adaptive P1 FEM runs with built-in verification checks.",
    )
    for name, key in _KEYS.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **key["flag"])
    return parser


def parse_config(argv):
    """The command-line flags that were given, as a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    raw = {key: getattr(args, key) for key in _KEYS if getattr(args, key) is not None}
    if "problem" not in raw:
        raise ConfigError("key 'problem' is required")
    values = {}
    for key, text in raw.items():
        try:
            values[key] = _KEYS[key]["parse"](text)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    if "max_elements" not in values and "eta_tol" not in values:
        raise ConfigError("key 'max_elements' or 'eta_tol' is required as a stopping rule")
    return RunConfig(**values)


def _fmt(value):
    return repr(float(value))


def _run_checks(result, config, uniform_result):
    """Run the requested checks; a check unable to run on this trace is
    reported as skipped, not failed."""
    outcomes = []
    for name in config.checks:
        try:
            check = CHECKS[name](result, config, uniform_result)
        except ValueError as exc:
            check = CheckResult("skip", str(exc))
        outcomes.append({"check": name, "status": check.status, "detail": check.detail})
    return outcomes


def _write_plotdata(path, result, uniform_result):
    lines = ["series,n_extra,eta,log10_n_extra,log10_eta"]

    def add(series, trace):
        n0 = trace.n_elements[0]
        for n, eta_sq in zip(trace.n_elements, trace.eta_sq):
            extra = n - n0
            eta = math.sqrt(eta_sq)
            if extra <= 0 or eta <= 0:
                continue
            lines.append(
                f"{series},{int(extra)},{_fmt(eta)},"
                f"{_fmt(math.log10(extra))},{_fmt(math.log10(eta))}"
            )

    add("adaptive", result.trace)
    if uniform_result is not None:
        add("uniform", uniform_result.trace)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render plotdata.csv (written next to this script) as a log-log plot.\"\"\"
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
series = defaultdict(lambda: ([], []))
with open(here / "plotdata.csv") as fh:
    for row in csv.DictReader(fh):
        xs, ys = series[row["series"]]
        xs.append(float(row["n_extra"]))
        ys.append(float(row["eta"]))
for name, (xs, ys) in sorted(series.items()):
    plt.loglog(xs, ys, "o-", label=name)
plt.xlabel("elements beyond initial mesh")
plt.ylabel("error estimator")
plt.legend()
plt.savefig(here / "traces.png", dpi=150)
print("wrote", here / "traces.png")
"""


def _write_run_failure(out, name, exc, trace_file):
    """Record a run that raised: ``failures.json`` with one ``name`` entry,
    its partial trace under ``trace_file`` and a ``RUN: FAIL`` report."""
    failures = [{"check": name, "status": "fail", "detail": str(exc)}]
    with open(os.path.join(out, "failures.json"), "w") as fh:
        json.dump(failures, fh, indent=2, sort_keys=True)
    trace = getattr(exc, "trace", None)
    if trace is not None and len(trace):
        trace.to_csv(os.path.join(out, trace_file))
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(f"RUN: FAIL {exc}\n")
    return failures


def _execute_single(config, uniform_result):
    """One run (single theta); returns the list of failing checks.
    ``uniform_result`` is the uniform baseline that the run writes, the
    :class:`AfemRunError` that ended it, or None."""
    problem = builtin_problem(config.problem)
    initial_mesh = problem.make_initial_mesh()
    out = config.out
    os.makedirs(os.path.join(out, "meshes"), exist_ok=True)
    try:
        result = run_afem(
            problem, config.theta[0], config.max_elements, config.eta_tol, config.marking,
            keep_history=False, compute_reference="quasi_orthogonality" in config.checks,
            initial_mesh=initial_mesh)
    except Exception as exc:
        return _write_run_failure(out, "run", exc, "trace.csv")

    if isinstance(uniform_result, AfemRunError):
        result.trace.to_csv(os.path.join(out, "trace.csv"))
        return _write_run_failure(out, "uniform_run", uniform_result, "trace_uniform.csv")

    result.trace.to_csv(os.path.join(out, "trace.csv"))
    if uniform_result is not None:
        uniform_result.trace.to_csv(os.path.join(out, "trace_uniform.csv"))
    write_mesh(initial_mesh, os.path.join(out, "meshes", "initial.mesh"))
    write_mesh(result.final_solution.mesh, os.path.join(out, "meshes", "final.mesh"))
    _write_plotdata(os.path.join(out, "plotdata.csv"), result, uniform_result)
    with open(os.path.join(out, "plot_traces.py"), "w") as fh:
        fh.write(_PLOT_SCRIPT)

    outcomes = _run_checks(result, config, uniform_result)
    failures = [o for o in outcomes if o["status"] == "fail"]

    config_dump = dataclasses.asdict(config)
    config_dump.pop("out")  # implicit in the file location; keeps runs comparable
    meta = {"config": config_dump, "trace_meta": result.trace.meta}
    with open(os.path.join(out, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=float)
    with open(os.path.join(out, "failures.json"), "w") as fh:
        json.dump(failures, fh, indent=2, sort_keys=True)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(f"problem={config.problem} theta={config.theta[0]} "
                 f"marking={config.marking} iterations={len(result.trace)} "
                 f"final_elements={int(result.trace.n_elements[-1])}\n")
        for o in outcomes:
            fh.write(f"CHECK {o['check']}: {o['status'].upper()} {o['detail']}\n")
    return failures


def _sweep_dir(theta):
    """The subdirectory of ``out`` that a sweep writes the run of ``theta`` to."""
    return f"theta={theta:g}"


def _clear_artefacts(out):
    """Remove the ``ARTEFACTS`` of an earlier run or sweep from ``out`` and
    from its sweep directories, then every directory this leaves empty;
    any other file stays where it is."""
    sweeps = glob.glob(os.path.join(glob.escape(out), "theta=*"))  # every _sweep_dir
    for run_dir in [*sweeps, out]:
        found = [path for path in (os.path.join(run_dir, name) for name in ARTEFACTS)
                 if os.path.isfile(path)]
        for path in found:
            os.remove(path)
        if not found:
            continue
        for directory in (os.path.join(run_dir, "meshes"), run_dir):
            if directory != out and os.path.isdir(directory) and not os.listdir(directory):
                os.rmdir(directory)


def execute(config):
    """Run the configured job (or theta sweep); 0 exit iff no check failed.

    Raises :class:`ConfigError` before any run when ``max_elements`` is
    below the initial element count. Otherwise ``out`` first loses the
    artefacts of any earlier run or sweep (:func:`_clear_artefacts`). A
    sweep with ``uniform_baseline`` runs the baseline once; every theta
    writes it, or its failure.
    """
    initial = builtin_problem(config.problem).make_initial_mesh()
    if config.max_elements is not None and config.max_elements < initial.n_elements:
        raise ConfigError("key 'max_elements': below the initial element count")
    _clear_artefacts(config.out)
    # run_uniform does not read theta: one baseline serves the whole sweep
    uniform_result = None
    if config.uniform_baseline:
        try:
            uniform_result = run_uniform(
                builtin_problem(config.problem), max_elements=config.max_elements,
                eta_tol=config.eta_tol, keep_history=False)
        except AfemRunError as exc:
            uniform_result = exc
    if len(config.theta) == 1:
        return 1 if _execute_single(config, uniform_result) else 0
    failures = [_execute_single(dataclasses.replace(
        config, theta=(theta,), out=os.path.join(config.out, _sweep_dir(theta))),
        uniform_result) for theta in config.theta]
    return 1 if any(failures) else 0


def main(argv=None):
    try:
        return execute(parse_config(argv if argv is not None else sys.argv[1:]))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
