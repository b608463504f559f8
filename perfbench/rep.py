"""One repetition of one workload, in a fresh process.

Prints one JSON line: set-up and run times, peak RSS, the outcome the
correctness gate checked, and with ``--trace 1`` the per-layer metrics.
Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import spans
import workloads


def calibrate():
    """Time a fixed numpy kernel that shares no code with triafem.

    It streams per-element arrays of the size the workloads use through a
    contraction, a sort and sparse products. The host's memory speed varies
    by tens of percent from minute to minute, and the kernel slows with it.
    """
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    coeff = rng.random((40_000, 7, 2, 2))
    grads = rng.random((40_000, 3, 2))
    keys = rng.integers(0, 1 << 40, size=200_000)
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(224, 224))
    matrix = (sp.kron(line, sp.eye(224)) + sp.kron(sp.eye(224), line)).tocsr() / 8.0
    x = rng.random(matrix.shape[0])
    t = time.perf_counter()
    np.einsum("nqab,njb->nqja", coeff, grads)
    np.unique(keys)
    for _ in range(20):
        x = matrix @ x
    return time.perf_counter() - t


def measure(workload, out, traced, spans_path=None):
    """Set up and run ``workload`` once; returns the result record."""
    t0 = time.perf_counter()
    prepared = workloads.Prepared(workload, out)
    setup_s = time.perf_counter() - t0

    calib_before = calibrate()
    tracer = None
    if traced:
        tracer = spans.Tracer(run_id=os.getpid())
        spans.install(tracer, prepared)
    try:
        t1 = time.perf_counter()
        raw = prepared.run()
        wall_s = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_s = min(calib_before, calibrate())

    summary = workloads.outcome_summary(prepared, raw)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "calib_s": calib_s,
        "elements_sum": summary["elements_sum"],
        "outcome": summary,
        "reasons": workloads.gate(workload, summary),
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer, summary)
        if spans_path:
            tracer.dump(spans_path)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True, help="artefact directory of the CLI run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    parser.add_argument("--tiny", action="store_true", help="smoke-test budgets")
    args = parser.parse_args(argv)
    table = workloads.TINY_WORKLOADS if args.tiny else workloads.WORKLOADS
    try:
        record = measure(table[args.workload], args.out, args.trace == 1, args.spans)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
