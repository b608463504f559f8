"""The benchmark's gated workloads, in tier-1.

``perfbench/workloads.py`` records what the unchanged program gives on each
benchmark workload, and its ``gate`` names what a run misses of it. The
``magnetostatics_reference`` workload is the one gated run that checks
quasi-orthogonality, whose verdict reads the error column, and the only
Newton run; ``lshape_adaptive`` is the gated run of linear solves, whose
iteration count, final mesh and final eta^2 turn on the last bits of every
solve. Running both here makes a change that misses either gate fail the
tests, not only the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    """``perfbench/workloads.py`` as a module, registered while it runs:
    its dataclasses look their module up by name."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_magnetostatics_reference_passes_the_benchmark_gate(monkeypatch, tmp_path):
    workloads = _workloads(monkeypatch)
    workload = workloads.WORKLOADS["magnetostatics_reference"]
    assert "quasi_orthogonality" in workload.checks
    prepared = workloads.Prepared(workload, str(tmp_path))
    summary = workloads.outcome_summary(prepared, prepared.run())
    assert workloads.gate(workload, summary) == []
    assert summary["checks"]["quasi_orthogonality"] == "PASS"


def test_lshape_adaptive_passes_the_benchmark_gate(monkeypatch, tmp_path):
    workloads = _workloads(monkeypatch)
    workload = workloads.WORKLOADS["lshape_adaptive"]
    prepared = workloads.Prepared(workload, str(tmp_path))
    summary = workloads.outcome_summary(prepared, prepared.run())
    assert workloads.gate(workload, summary) == []
