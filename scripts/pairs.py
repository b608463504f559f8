"""Interleaved parent/change pairs of one benchmark workload.

Usage, with two checkouts of the repository::

    python3 scripts/pairs.py --parent ../parent --change . --workload lshape_adaptive --pairs 10

Each pair runs one repetition of the workload (``perfbench/rep.py``) in
each checkout, one after the other; which side runs first alternates from
pair to pair. A repetition runs in a fresh process in its checkout, with
that checkout's ``src`` on ``PYTHONPATH`` and one BLAS thread. Times are
normalised to the host's speed as ``perfbench/run.py`` does (scaled by
``CALIB_REF_S / calib_s``), and ``elements_per_s`` is the element count
summed over the run's meshes per normalised wall second. The script prints
per pair the four end-to-end metrics of both sides, then per metric the
parent's median and quartiles, the change's median, the median of the
per-pair ratios change/parent and the number of pairs the change wins
(lower is better, except for ``elements_per_s``).
A repetition that fails or misses the correctness gate is reported and
left out of the statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import BLAS_THREADS, CALIB_REF_S  # noqa: E402

# end-to-end metric -> True where higher is better
METRICS = {"wall_s": False, "setup_s": False, "elements_per_s": True, "peak_rss_mb": False}


def run_rep(checkout, workload):
    """One repetition in ``checkout``: its normalised metrics, or a failure string."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    out = tempfile.mkdtemp(prefix="pairs-")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(checkout, "perfbench", "rep.py"),
             "--workload", workload, "--out", out],
            cwd=checkout, env=env, capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if "error" in record:
        return record["error"].strip().splitlines()[-1]
    if record["reasons"]:
        return "gate: " + "; ".join(record["reasons"])
    scale = CALIB_REF_S / record["calib_s"]
    return {
        "wall_s": record["wall_s"] * scale,
        "setup_s": record["setup_s"] * scale,
        "elements_per_s": record["elements_sum"] / (record["wall_s"] * scale),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def summarise(pairs):
    """Per metric: parent quartiles, change median, median ratio, wins."""
    lines = []
    for name, higher_better in METRICS.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4)
        else:
            q1 = q3 = parent[0]
        ratio = statistics.median(c / p for p, c in zip(parent, change))
        wins = sum((c > p) if higher_better else (c < p) for p, c in zip(parent, change))
        lines.append(
            f"{name}: parent median {statistics.median(parent):.4g} [q1 {q1:.4g}, q3 {q3:.4g}]"
            f" -> change median {statistics.median(change):.4g};"
            f" median pair ratio {ratio:.4f}; change better in {wins}/{len(pairs)} pairs"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    pairs = []
    print(f"workload {args.workload}, {args.pairs} pairs, BLAS threads {BLAS_THREADS}")
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        result = {side: run_rep(sides[side], args.workload) for side in order}
        failed = [f"{side}: {r}" for side, r in result.items() if isinstance(r, str)]
        if failed:
            print(f"pair {k + 1} ({order[0]} first) FAILED: " + " | ".join(failed))
            continue
        p, c = result["parent"], result["change"]
        print(f"pair {k + 1} ({order[0]} first): "
              + ", ".join(f"{name} {p[name]:.4g} / {c[name]:.4g}" for name in METRICS))
        pairs.append((p, c))
    if not pairs:
        print("no pair completed")
        return 1
    for line in summarise(pairs):
        print(line)
    return 0 if len(pairs) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
