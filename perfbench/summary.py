"""Run every workload several times and print each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/summary.py --runs 10 --trace 0

Runs ``run.py`` once per workload and seed, interleaving the workloads so
that a slow drift of the host affects all of them alike, one process at a
time. For every end-to-end metric it prints, per workload, the median,
quartiles and count of the per-run values and their spread: the distance
between the quartiles as a share of the median, next to the metric's bound
in ``BENCHMARK.json``. With ``--trace 1`` it prints the medians of the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma list from: " + ", ".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in chosen}
    failures = {w: 0 for w in chosen}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in chosen:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                failures[workload] += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures[workload] += not result["correct"]
            for name, entry in result["metrics"].items():
                values[workload][name].append(entry["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={entry['value']:.5g}" for name, entry in result["metrics"].items()
                if not args.trace), file=sys.stderr, flush=True)

    for workload in chosen:
        print(f"{workload}: {args.runs} runs, {failures[workload]} not correct")
        print(f"  {'metric':<36} {'unit':<9} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'n':>3}" + ("" if args.trace else f" {'spread':>7} {'bound':>6}"))
        for m in metrics:
            vals = values[workload][m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            line = (f"  {m['name']:<36} {m['unit']:<9} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                    f"{len(vals):3d}")
            if not args.trace:
                line += f" {(q3 - q1) / med:7.3f} {m['bound']:6.2f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
