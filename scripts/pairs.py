"""Interleaved parent/change pairs of one benchmark workload.

Usage, with two checkouts of the repository::

    python3 scripts/pairs.py --parent ../parent --change . --workload lshape_adaptive --pairs 10

Before the first pair, both checkouts' ``src/triafem`` are compiled to
bytecode, as ``perfbench/run.py`` compiles its own: a checkout made by
``git archive`` has none, and with ``PYTHONDONTWRITEBYTECODE`` set no
repetition would write it, so that side would compile triafem in every
repetition. Each pair runs one repetition of the workload
(``perfbench/rep.py``) in each checkout, one after the other; which side
runs first alternates from pair to pair. A repetition runs in a fresh
process in its checkout, with that checkout's ``src`` on ``PYTHONPATH``
and one BLAS thread. Times are normalised to the host's speed as
``perfbench/run.py`` does (scaled by ``CALIB_REF_S / calib_s``), and
``elements_per_s`` is the element count summed over the run's meshes per
normalised wall second. The script prints
per pair the four end-to-end metrics of both sides, then per metric the
parent's median and quartiles, the change's median, the median of the
per-pair ratios change/parent and the number of pairs the change wins
(lower is better, except for ``elements_per_s``), and whether the claim
rule holds: the change wins at least nine tenths of the pairs, ties
counting for neither side, and its median is better than the parent's by
more than the parent's quartile spread.
A repetition that fails or misses the correctness gate is reported and
left out of the statistics. The CLI artefacts of the two sides of a pair
are compared byte for byte, the traces (``trace.csv`` and
``trace_uniform.csv``) without the columns that vary from run to run
(``triafem.driver.VARYING_COLUMNS``, read from the ``src`` of the
checkout that holds this script), and the
summary counts the pairs whose artefacts agree. Where they differ, the
pair's line says what differs: each trace column that differs with its
largest relative difference, the ``meta.json`` keys whose
values differ, each check whose ``CHECK`` line of ``report.txt`` differs
with its verdict on both sides, for a ``.mesh`` file the vertex and triangle counts of each
side and the number of vertices and of triangles on one side only, and
the name of every other file that differs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
from run import BLAS_THREADS, CALIB_REF_S  # noqa: E402

from triafem.driver import VARYING_COLUMNS  # noqa: E402

# the artefacts that are traces, compared without their VARYING_COLUMNS
TRACES = ("trace.csv", "trace_uniform.csv")
# end-to-end metric -> True where higher is better
METRICS = {"wall_s": False, "setup_s": False, "elements_per_s": True, "peak_rss_mb": False}


def run_rep(checkout, workload, out):
    """One repetition in ``checkout``, writing its artefacts to ``out``: its
    normalised metrics, or a failure string."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "rep.py"),
         "--workload", workload, "--out", out],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
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


def artefact_bytes(path):
    """The bytes of one artefact; a trace without its ``VARYING_COLUMNS``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) not in TRACES:
        return data
    rows = [line.split(b",") for line in data.split(b"\n")]
    drop = {i for i, name in enumerate(rows[0]) if name.decode() in VARYING_COLUMNS}
    return b"\n".join(b",".join(c for i, c in enumerate(r) if i not in drop) for r in rows)


def _trace_columns(data):
    """Header name -> list of cell strings of a ``trace.csv``."""
    rows = [line.split(",") for line in data.decode().splitlines() if line]
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _relative_difference(parent_cells, change_cells):
    """Largest ``|a - b| / max(|a|, |b|)`` over two columns of cells; equal
    cells (two NaNs included) count 0, other non-finite pairs inf."""
    worst = 0.0
    for a, b in zip(map(float, parent_cells), map(float, change_cells)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def trace_differences(parent_data, change_data):
    """``column (largest relative difference)`` per differing column of a
    trace, ``VARYING_COLUMNS`` left out."""
    parent, change = _trace_columns(parent_data), _trace_columns(change_data)
    out = []
    for name in sorted(set(parent) | set(change)):
        if name in VARYING_COLUMNS or parent.get(name) == change.get(name):
            continue
        if name not in parent or name not in change:
            out.append(f"{name} (only in the {'change' if name in change else 'parent'})")
        elif len(parent[name]) != len(change[name]):
            out.append(f"{name} ({len(parent[name])} rows against {len(change[name])})")
        else:
            out.append(f"{name} ({_relative_difference(parent[name], change[name]):.2e})")
    return out


def _leaves(value, name=""):
    """Dotted key -> JSON text of every value of a JSON object that is not
    itself a non-empty object."""
    if isinstance(value, dict) and value:
        return {key: text for part, item in value.items()
                for key, text in _leaves(item, f"{name}.{part}" if name else part).items()}
    return {name: json.dumps(value, sort_keys=True)}


def meta_differences(parent_data, change_data):
    """The ``meta.json`` keys, dotted into nested objects, whose values
    differ or that one side lacks."""
    parent, change = _leaves(json.loads(parent_data)), _leaves(json.loads(change_data))
    return sorted(k for k in set(parent) | set(change) if parent.get(k) != change.get(k))


def _check_lines(data):
    """Check name -> (verdict, detail) of each ``CHECK name: VERDICT detail``
    line of a ``report.txt``."""
    checks = {}
    for line in data.decode().splitlines():
        if line.startswith("CHECK "):
            name, _, rest = line[len("CHECK "):].partition(": ")
            verdict, _, detail = rest.partition(" ")
            checks[name] = (verdict, detail)
    return checks


def report_differences(parent_data, change_data):
    """Each check whose ``CHECK`` line of ``report.txt`` differs, with its
    verdict: ``name (verdict PASS -> FAIL)`` where that changed,
    ``name (verdict PASS unchanged)`` where only the detail did."""
    parent, change = _check_lines(parent_data), _check_lines(change_data)
    out = []
    for name in sorted(set(parent) | set(change)):
        if parent.get(name) == change.get(name):
            continue
        if name not in parent or name not in change:
            out.append(f"{name} (only in the {'change' if name in change else 'parent'})")
        elif parent[name][0] != change[name][0]:
            out.append(f"{name} (verdict {parent[name][0]} -> {change[name][0]})")
        else:
            out.append(f"{name} (verdict {parent[name][0]} unchanged)")
    return out


def _mesh_counts(data):
    """Vertex count, triangle count, the set of vertex lines and the set of
    triangles, each the tuple of its corners' vertex lines, of a mesh file
    (header ``NV NT``, one line per vertex, then one per triangle)."""
    lines = data.decode().splitlines()
    nv, nt = (int(v) for v in lines[0].split())
    vertices = lines[1:1 + nv]
    triangles = {tuple(vertices[int(v)] for v in line.split()[:3])
                 for line in lines[1 + nv:1 + nv + nt]}
    return nv, nt, set(vertices), triangles


def mesh_differences(parent_data, change_data):
    """Each side's vertex and triangle counts, and the number of vertices
    and of triangles on one side only, compared by their written
    coordinates, so a renumbering alone shows no vertex or triangle on
    one side only."""
    pv, pt, p_vertices, p_triangles = _mesh_counts(parent_data)
    cv, ct, c_vertices, c_triangles = _mesh_counts(change_data)
    return [f"parent {pv} vertices and {pt} triangles",
            f"change {cv} vertices and {ct} triangles",
            f"{len(p_vertices - c_vertices)} vertices only in the parent"
            f" and {len(c_vertices - p_vertices)} only in the change",
            f"{len(p_triangles - c_triangles)} triangles only in the parent"
            f" and {len(c_triangles - p_triangles)} only in the change"]


def file_differences(name, parent_data, change_data):
    """What differs between two versions of the artefact ``name``:
    :func:`mesh_differences` for a ``.mesh`` file, :func:`trace_differences`
    for a trace, :func:`meta_differences` for ``meta.json``,
    :func:`report_differences` for ``report.txt``, and an empty list for
    any other file."""
    what = mesh_differences if name.endswith(".mesh") else {
        **dict.fromkeys(TRACES, trace_differences), "meta.json": meta_differences,
        "report.txt": report_differences}.get(name)
    return what(parent_data, change_data) if what else []


def differences(parent_out, change_out):
    """What differs between two artefact directories, one string per file
    (relative paths, sorted); an empty list when all agree."""
    names = set()
    for out in (parent_out, change_out):
        for folder, _, files in os.walk(out):
            names.update(os.path.relpath(os.path.join(folder, f), out) for f in files)
    out = []
    for name in sorted(names):
        paths = [os.path.join(side, name) for side in (parent_out, change_out)]
        if not all(os.path.isfile(p) for p in paths):
            out.append(f"{name} (only on one side)")
            continue
        if artefact_bytes(paths[0]) == artefact_bytes(paths[1]):
            continue
        data = []
        for path in paths:
            with open(path, "rb") as fh:
                data.append(fh.read())
        details = file_differences(name, *data)
        out.append(f"{name}: {', '.join(details)}" if details else name)
    return out


def claim_rule(wins, n_pairs, gain, spread):
    """Whether a gain may be claimed: the change wins at least nine tenths
    of the pairs, ties counting for neither side, and its median is better
    than the parent's by more than the parent's quartile spread."""
    misses = []
    if 10 * wins < 9 * n_pairs:
        misses.append(f"{wins}/{n_pairs} wins, below nine tenths")
    if not gain > spread:
        misses.append(f"median gain {gain:.4g} not above the parent's quartile spread"
                      f" {spread:.4g}")
    return "not met: " + "; ".join(misses) if misses else "met"


def summarise(pairs):
    """Per metric: parent quartiles, change median, median ratio, wins,
    then whether the claim rule (:func:`claim_rule`) holds."""
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
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        gain = change_median - parent_median if higher_better else parent_median - change_median
        lines.append(
            f"{name}: parent median {parent_median:.4g} [q1 {q1:.4g}, q3 {q3:.4g}]"
            f" -> change median {change_median:.4g};"
            f" median pair ratio {ratio:.4f}; change better in {wins}/{len(pairs)} pairs"
        )
        lines.append(f"{name}: claim rule {claim_rule(wins, len(pairs), gain, q3 - q1)}")
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

    for checkout in sides.values():
        compileall.compile_dir(os.path.join(checkout, "src", "triafem"), quiet=1)
    pairs = []
    same_artefacts = 0
    print(f"workload {args.workload}, {args.pairs} pairs, BLAS threads {BLAS_THREADS}")
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        outs = {side: tempfile.mkdtemp(prefix=f"pairs-{side}-") for side in sides}
        try:
            result = {side: run_rep(sides[side], args.workload, outs[side]) for side in order}
            failed = [f"{side}: {r}" for side, r in result.items() if isinstance(r, str)]
            differs = None if failed else differences(outs["parent"], outs["change"])
        finally:
            for out in outs.values():
                shutil.rmtree(out, ignore_errors=True)
        if failed:
            print(f"pair {k + 1} ({order[0]} first) FAILED: " + " | ".join(failed))
            continue
        p, c = result["parent"], result["change"]
        same_artefacts += not differs
        print(f"pair {k + 1} ({order[0]} first): "
              + ", ".join(f"{name} {p[name]:.4g} / {c[name]:.4g}" for name in METRICS)
              + ("; artefacts differ: " + "; ".join(differs) if differs
                 else "; artefacts identical"))
        pairs.append((p, c))
    if not pairs:
        print("no pair completed")
        return 1
    for line in summarise(pairs):
        print(line)
    print(f"artefacts identical in {same_artefacts}/{len(pairs)} pairs")
    return 0 if len(pairs) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
