"""The benchmark's gated workloads, in tier-1.

``perfbench/workloads.py`` records what the unchanged program gives on each
benchmark workload, and its ``gate`` names what a run misses of it. The
``magnetostatics_reference`` workload is the one gated run that checks
quasi-orthogonality, whose verdict reads the error column, and the only
Newton run; ``lshape_adaptive`` is the gated run of linear solves, whose
iteration count, final mesh and final eta^2 turn on the last bits of every
solve. Running both here makes a change that misses either gate fail the
tests, not only the benchmark. ``perfbench/spans.py`` times the program
by wrapping its functions by name, so a name that the program loses
fails here too, not only in the benchmark's traced repetitions.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch, name):
    """``perfbench/<name>.py`` as a module, registered while it runs: the
    dataclasses of ``workloads.py`` and ``spans.py`` look their module up
    by name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_magnetostatics_reference_passes_the_benchmark_gate(monkeypatch, tmp_path):
    workloads = _perfbench(monkeypatch, "workloads")
    workload = workloads.WORKLOADS["magnetostatics_reference"]
    assert "quasi_orthogonality" in workload.checks
    prepared = workloads.Prepared(workload, str(tmp_path))
    summary = workloads.outcome_summary(prepared, prepared.run())
    assert workloads.gate(workload, summary) == []
    assert summary["checks"]["quasi_orthogonality"] == "PASS"


def test_lshape_adaptive_passes_the_benchmark_gate(monkeypatch, tmp_path):
    workloads = _perfbench(monkeypatch, "workloads")
    workload = workloads.WORKLOADS["lshape_adaptive"]
    prepared = workloads.Prepared(workload, str(tmp_path))
    summary = workloads.outcome_summary(prepared, prepared.run())
    assert workloads.gate(workload, summary) == []


def test_span_install_finds_every_name_it_wraps(monkeypatch, tmp_path):
    # install looks each wrapped name up with getattr, so a name the program
    # no longer has raises here; every patch is then undone
    workloads, spans = _perfbench(monkeypatch, "workloads"), _perfbench(monkeypatch, "spans")
    for name, workload in workloads.TINY_WORKLOADS.items():
        prepared = workloads.Prepared(workload, str(tmp_path / name))
        tracer = spans.Tracer(run_id=0)
        try:
            spans.install(tracer, prepared)
            patched = list(tracer._patches)
        finally:
            tracer.restore()
        assert patched, name
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, (name, attr)
