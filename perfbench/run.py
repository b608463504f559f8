"""triafem benchmark: repeat one workload for a fixed time, report medians.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lshape_adaptive --seed 0 --seconds 60 --trace 0

Each repetition runs in a fresh child process (``rep.py``) with one BLAS
thread, one at a time. Repetitions start until the next one would end past
``--seconds``, with at least ``MIN_REPS`` of them. With ``--trace 0`` the
result line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced repetitions; a traced run alternates traced
and untraced repetitions, and the difference of their median wall times is
the tracing overhead. Every repetition passes the correctness gate or
counts as failed. The last line of standard output is the JSON result; the
repetitions of each run are kept in ``.perfbench_work``.

End-to-end times are normalised to the host's speed: each repetition's time
is scaled by ``CALIB_REF_S / calib_s``, where ``calib_s`` is the time of a
fixed kernel measured in the same child around the call (``rep.calibrate``).
The report prints the raw medians as well.

The workloads are deterministic, so ``--seed`` changes no input; it only
labels the run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
REP_TIMEOUT_S = 100
WORK_DIR = ".perfbench_work"
BLAS_THREADS = "1"
# the calibration kernel's median time on the reference host (see
# benchmark_notes.json); times are reported in seconds at that host speed
CALIB_REF_S = 0.28


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_rep(workload, traced, k, tiny=False):
    """One repetition in a child process; a failed one carries a ``failure`` reason."""
    out = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}-{k}")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--out", out, "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", os.path.join(WORK_DIR, f"{workload}.spans.json")]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failure": f"timed out after {REP_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {}
    if proc.returncode != 0 or "error" in record:
        detail = record.get("error") or proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failure": f"exit code {proc.returncode}: {detail}"}
    if record["reasons"]:
        return {"failure": "; ".join(record["reasons"]), **record}
    return record


def repeat(workload, seconds, trace, tiny=False):
    """Run repetitions until ``seconds`` are used; traced runs alternate."""
    start = time.perf_counter()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 0
        record = run_rep(workload, traced, len(reps), tiny)
        record["traced"] = traced
        reps.append(record)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def normalised(record, name):
    """A repetition's time in seconds at the reference host speed."""
    return record[name] * CALIB_REF_S / record["calib_s"]


def end_to_end(reps):
    """Per-repetition end-to-end values of the untraced, passing repetitions."""
    ok = [r for r in reps if "failure" not in r and not r["traced"]]
    return {
        "wall_s": [normalised(r, "wall_s") for r in ok],
        "setup_s": [normalised(r, "setup_s") for r in ok],
        "elements_per_s": [r["elements_sum"] / normalised(r, "wall_s") for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }


def per_layer(reps):
    traced = [r for r in reps if "failure" not in r and r["traced"]]
    if not traced:
        return {}
    return {name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]}


def print_report(workload, reps, trace, units):
    failed = sum("failure" in r for r in reps)
    print(f"workload {workload}: {len(reps)} repetitions, {failed} failed "
          f"(failed_frac {failed / len(reps):.3f}), BLAS threads {BLAS_THREADS}")
    for r in reps:
        if "failure" in r:
            print(f"  FAILED: {r['failure']}")
    values = end_to_end(reps)
    untraced = [r for r in reps if "failure" not in r and not r["traced"]]
    values["raw wall_s"] = [r["wall_s"] for r in untraced]
    values["raw setup_s"] = [r["setup_s"] for r in untraced]
    values["calib_s"] = [r["calib_s"] for r in untraced]
    print(f"  {'metric':<16} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, vals in values.items():
        if vals:
            q1, med, q3 = quartiles(vals)
            unit = units.get(name, "s")
            print(f"  {name:<16} {unit:<7} {med:12.5g} {q1:12.5g} {q3:12.5g} {len(vals):3d}")
    traced = [r for r in reps if "failure" not in r and r["traced"]]
    if not trace or not traced:
        return
    layers = per_layer(reps)
    wall = statistics.median(r["wall_s"] for r in traced)
    print(f"  traced wall_s {wall:.4g} s (not normalised); per-layer self times, "
          f"median of {len(traced)} traced repetitions:")
    attributed = 0.0
    for name in spans.SELF_TIMES:
        attributed += layers[name]
        print(f"    {name:<24} {layers[name]:10.4f} s {100 * layers[name] / wall:6.1f}%")
    print(f"    {'(other)':<24} {wall - attributed:10.4f} s "
          f"{100 * (wall - attributed) / wall:6.1f}%")
    for name, value in layers.items():
        if name not in spans.SELF_TIMES:
            print(f"    {name:<36} {value:.6g}")
    if untraced:
        overhead = (statistics.median(normalised(r, "wall_s") for r in traced)
                    - statistics.median(values["wall_s"]))
        print(f"  tracing overhead: traced minus untraced median wall_s = {overhead:+.4f} s")


def result_line(reps, trace, units):
    failed = sum("failure" in r for r in reps)
    if trace:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in per_layer(reps).items()}
    else:
        metrics = {name: {"value": statistics.median(vals), "unit": units[name]}
                   for name, vals in end_to_end(reps).items() if vals}
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def load_units():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="labels the run; inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "triafem", "__init__.py")):
        print("perfbench: run from the root of a triafem checkout (no src/triafem here)",
              file=sys.stderr)
        return 2
    units = load_units()
    compileall.compile_dir(os.path.join("src", "triafem"), quiet=1)
    os.makedirs(WORK_DIR, exist_ok=True)

    reps = repeat(args.workload, args.seconds, args.trace == 1)
    with open(os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(reps, fh)
    result = result_line(reps, args.trace == 1, units)
    if not result["metrics"]:
        print(f"perfbench: every repetition of {args.workload} failed", file=sys.stderr)
        for r in reps:
            print(f"  {r['failure']}", file=sys.stderr)
        return 1
    print_report(args.workload, reps, args.trace == 1, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
