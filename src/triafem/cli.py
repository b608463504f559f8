"""Batch entry point: configure a run or sweep, execute, emit artifacts.

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
import json
import math
import os
import sys
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .driver import (
    check_convergence,
    check_discrete_reliability,
    check_estimator_reduction,
    check_marking_optimality,
    check_quasi_orthogonality,
    check_rlinear,
    fit_rate,
    run_afem,
    run_uniform,
)
from .mesh import write_mesh
from .problems import builtin_names, builtin_problem

KNOWN_CHECKS = (
    "estimator_reduction",
    "rlinear",
    "rate",
    "quasi_orthogonality",
    "marking_optimality",
    "discrete_reliability",
    "convergence",
    "mesh_audit",
)
DEFAULT_CHECKS = (
    "estimator_reduction",
    "rlinear",
    "marking_optimality",
    "discrete_reliability",
    "mesh_audit",
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    problem: str
    theta: tuple
    marking: str = "min"
    max_elements: int | None = None
    eta_tol: float | None = None
    checks: tuple = DEFAULT_CHECKS
    out: str = "afem_out"
    uniform_baseline: bool = False
    jobs: int = 1
    qo_epsilon: float = 0.5


def _parse_bool(key, raw):
    if isinstance(raw, bool):
        return raw
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def read_config_file(path):
    """Flat key=value configuration file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = raw
    return values


_FILE_KEYS = {
    "problem": str,
    "theta": str,
    "marking": str,
    "max_elements": int,
    "eta_tol": float,
    "checks": str,
    "out": str,
    "uniform_baseline": "bool",
    "jobs": int,
    "qo_epsilon": float,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="triafem",
        description="Adaptive P1 FEM runs with built-in verification checks.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--problem", help=f"one of: {', '.join(builtin_names())}")
    parser.add_argument("--theta", help="marking parameter in (0, 1]; comma list sweeps")
    parser.add_argument("--marking", choices=("min", "binned"))
    parser.add_argument("--max-elements", type=int, dest="max_elements")
    parser.add_argument("--eta-tol", type=float, dest="eta_tol")
    parser.add_argument("--checks", help=f"comma list from: {', '.join(KNOWN_CHECKS)}")
    parser.add_argument("--out")
    parser.add_argument("--uniform-baseline", action="store_true", default=None,
                        dest="uniform_baseline")
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--qo-epsilon", type=float, dest="qo_epsilon")
    return parser


def parse_config(argv):
    """Merge config file and command-line flags into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    merged = {}
    if args.config:
        raw = read_config_file(args.config)
        for key, value in raw.items():
            if key not in _FILE_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            kind = _FILE_KEYS[key]
            merged[key] = _parse_bool(key, value) if kind == "bool" else kind(value)
    for key in _FILE_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    if "problem" not in merged:
        raise ConfigError("key 'problem' is required")
    if merged["problem"] not in builtin_names():
        raise ConfigError(
            f"key 'problem': unknown problem {merged['problem']!r}; "
            f"known: {', '.join(builtin_names())}"
        )
    theta_raw = merged.get("theta", "0.5")
    thetas = tuple(float(part) for part in str(theta_raw).split(","))
    for value in thetas:
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"key 'theta': value {value} outside (0, 1]")
    checks_raw = merged.get("checks")
    if checks_raw is None:
        checks = DEFAULT_CHECKS
    else:
        checks = tuple(part.strip() for part in checks_raw.split(",") if part.strip())
        unknown = [c for c in checks if c not in KNOWN_CHECKS]
        if unknown:
            raise ConfigError(
                f"key 'checks': unknown checks {unknown}; known: {', '.join(KNOWN_CHECKS)}"
            )
    max_elements = merged.get("max_elements")
    eta_tol = merged.get("eta_tol")
    if max_elements is None and eta_tol is None:
        raise ConfigError("key 'max_elements' or 'eta_tol' is required as a stopping rule")
    if max_elements is not None and max_elements < 1:
        raise ConfigError("key 'max_elements': must be positive")
    jobs = merged.get("jobs", 1)
    if jobs < 1:
        raise ConfigError("key 'jobs': must be at least 1")
    return RunConfig(
        problem=merged["problem"],
        theta=thetas,
        marking=merged.get("marking", "min"),
        max_elements=max_elements,
        eta_tol=eta_tol,
        checks=checks,
        out=merged.get("out", "afem_out"),
        uniform_baseline=merged.get("uniform_baseline", False),
        jobs=jobs,
        qo_epsilon=merged.get("qo_epsilon", 0.5),
    )


def _fmt(value):
    return repr(float(value))


def _run_checks(result, config, uniform_result):
    """Run the requested checks; a check unable to run on this trace is
    reported as skipped, not failed."""
    trace = result.trace
    outcomes = []

    def record(name, status, detail):
        outcomes.append({"check": name, "status": status, "detail": detail})

    for name in config.checks:
        try:
            if name == "estimator_reduction":
                fit = check_estimator_reduction(trace)
                status = "pass" if fit.passed else "fail"
                record(name, status,
                       f"q_fit={fit.q_fit:.6g} C_fit={fit.c_fit:.6g} "
                       f"violations={list(fit.violations)}")
            elif name == "rlinear":
                fit = check_rlinear(trace)
                record(name, "pass" if fit.passed else "fail",
                       f"q_fit={fit.q_fit:.6g} C_fit={fit.c_fit:.6g}")
            elif name == "rate":
                fit = fit_rate(trace)
                detail = f"rate={fit.rate:.4f} residual={fit.residual:.3g}"
                if uniform_result is not None:
                    ufit = fit_rate(uniform_result.trace)
                    detail += f" uniform_rate={ufit.rate:.4f}"
                record(name, "pass", detail)
            elif name == "quasi_orthogonality":
                report = check_quasi_orthogonality(trace, config.qo_epsilon)
                detail = (f"epsilon={config.qo_epsilon} ell0={report.ell0} "
                          f"failures={list(report.failures)} usable={len(report.usable)}")
                if not report.usable:
                    record(name, "skip", "no iterations above the reference noise floor")
                else:
                    record(name, "pass" if not report.failures else "fail", detail)
            elif name == "marking_optimality":
                rows = check_marking_optimality(trace)
                bad = [r for r in rows if not r.passed]
                applicable = sum(1 for r in rows if r.applicable)
                record(name, "pass" if not bad else "fail",
                       f"applicable={applicable} failing={len(bad)}")
            elif name == "discrete_reliability":
                report = check_discrete_reliability(trace, min_extra=100)
                if report.ratios.size == 0:
                    record(name, "skip", "no refinement pairs past the fit window")
                else:
                    ok = math.isfinite(report.max_ratio) and report.spread < 10.0
                    record(name, "pass" if ok else "fail",
                           f"max={report.max_ratio:.6g} spread={report.spread:.3g}")
            elif name == "convergence":
                report = check_convergence(trace)
                record(name, "pass" if report.passed else "fail",
                       f"reduction={report.reduction:.6g}")
            elif name == "mesh_audit":
                gamma0 = trace.meta["gamma_initial"]
                gamma_max = trace.meta.get("gamma_max", gamma0)
                closure = trace.meta.get("closure_constant", 0.0)
                ok = gamma_max <= 2.0 * gamma0 and closure <= 20.0
                result.final_mesh.validate()
                record(name, "pass" if ok else "fail",
                       f"gamma0={gamma0:.4g} gamma_max={gamma_max:.4g} closure={closure:.4g}")
        except ValueError as exc:
            record(name, "skip", str(exc))
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


def _execute_single(config):
    """One run (single theta); returns the list of failing checks."""
    problem = builtin_problem(config.problem)
    initial_mesh = problem.make_initial_mesh()
    if config.max_elements is not None:
        if config.max_elements < initial_mesh.n_elements:
            raise ConfigError("key 'max_elements': below the initial element count")
    out = config.out
    os.makedirs(out, exist_ok=True)
    os.makedirs(os.path.join(out, "meshes"), exist_ok=True)

    needs_reference = "quasi_orthogonality" in config.checks
    try:
        result = run_afem(
            problem,
            config.theta[0],
            max_elements=config.max_elements,
            eta_tol=config.eta_tol,
            marking=config.marking,
            keep_history=needs_reference,
            compute_reference=needs_reference,
            initial_mesh=initial_mesh,
        )
    except Exception as exc:
        failures = [{"check": "run", "status": "fail", "detail": str(exc)}]
        with open(os.path.join(out, "failures.json"), "w") as fh:
            json.dump(failures, fh, indent=2, sort_keys=True)
        trace = getattr(exc, "trace", None)
        if trace is not None and len(trace):
            trace.to_csv(os.path.join(out, "trace.csv"))
        with open(os.path.join(out, "report.txt"), "w") as fh:
            fh.write(f"RUN: FAIL {exc}\n")
        return failures

    uniform_result = None
    if config.uniform_baseline:
        uniform_result = run_uniform(
            problem, max_elements=config.max_elements, eta_tol=config.eta_tol,
            keep_history=False,
        )

    result.trace.to_csv(os.path.join(out, "trace.csv"))
    if uniform_result is not None:
        uniform_result.trace.to_csv(os.path.join(out, "trace_uniform.csv"))
    write_mesh(initial_mesh, os.path.join(out, "meshes", "initial.mesh"))
    write_mesh(result.final_mesh, os.path.join(out, "meshes", "final.mesh"))
    _write_plotdata(os.path.join(out, "plotdata.csv"), result, uniform_result)
    with open(os.path.join(out, "plot_traces.py"), "w") as fh:
        fh.write(_PLOT_SCRIPT)

    outcomes = _run_checks(result, config, uniform_result)
    failures = [o for o in outcomes if o["status"] == "fail"]

    config_dump = dataclasses.asdict(config)
    config_dump.pop("out")  # implicit in the file location; keeps runs comparable
    meta = {
        "config": config_dump,
        "trace_meta": {
            k: v for k, v in result.trace.meta.items() if _json_safe(v)
        },
    }
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


def _json_safe(value):
    return isinstance(value, (int, float, str, bool, type(None), np.floating, np.integer))


def _sweep_worker(payload):
    config_dict, theta = payload
    config = RunConfig(**{**config_dict, "theta": (theta,),
                          "out": os.path.join(config_dict["out"], f"theta={theta:g}")})
    return theta, _execute_single(config)


def execute(config):
    """Run the configured job (or theta sweep); 0 exit iff no check failed."""
    if len(config.theta) == 1:
        return 1 if _execute_single(config) else 0
    payloads = [(dataclasses.asdict(config), theta) for theta in config.theta]
    if config.jobs > 1:
        with get_context("spawn").Pool(config.jobs) as pool:
            results = pool.map(_sweep_worker, payloads)
    else:
        results = [_sweep_worker(p) for p in payloads]
    return 1 if any(failures for _, failures in results) else 0


def main(argv=None):
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return execute(config)


if __name__ == "__main__":
    sys.exit(main())
