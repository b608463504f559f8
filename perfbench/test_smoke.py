"""Smoke test of the benchmark itself, on budgets of a few hundred elements.

Runs every workload through the real child process, traced and untraced,
and checks the result line, the self times and the correctness gate.
Run from the repository root: ``python -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def reps():
    """Three tiny repetitions per workload: traced, untraced, traced."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        os.makedirs(run.WORK_DIR, exist_ok=True)
        return {name: run.repeat(name, 0.0, trace=True, tiny=True)
                for name in workloads.TINY_WORKLOADS}
    finally:
        os.chdir(cwd)


def test_workload_tables_agree_with_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert list(workloads.TINY_WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.TINY_WORKLOADS))
@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(reps, name, kind):
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    result = run.result_line(reps[name], kind == "per_layer", units)
    assert result["correct"] and result["failed"] == 0, reps[name]
    assert result["attempted"] == run.MIN_REPS
    assert set(result["metrics"]) == set(units)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == units[metric]
        assert math.isfinite(entry["value"])
        if kind == "end_to_end":
            assert entry["value"] > 0.0


@pytest.mark.parametrize("name", list(workloads.TINY_WORKLOADS))
def test_self_times_are_nonnegative_and_within_wall(reps, name):
    traced = [r for r in reps[name] if r["traced"]]
    assert traced
    for record in traced:
        self_times = [record["layers"][metric] for metric in spans.SELF_TIMES]
        assert min(self_times) >= -1e-9
        assert sum(self_times) <= record["wall_s"]


@pytest.mark.parametrize("name", list(workloads.TINY_WORKLOADS))
def test_perturbed_golden_fails_the_gate(reps, name):
    workload = workloads.TINY_WORKLOADS[name]
    outcome = reps[name][0]["outcome"]
    assert workloads.gate(workload, outcome) == []
    golden = workload.golden
    for perturbed in (
        dataclasses.replace(golden, iterations=golden.iterations + 1),
        dataclasses.replace(golden, final_elements=golden.final_elements - 1),
        dataclasses.replace(golden, eta_sq=golden.eta_sq * (1.0 + 1e-5)),
    ):
        assert workloads.gate(dataclasses.replace(workload, golden=perturbed), outcome)
    if workload.uses_cli:
        failing = {**outcome, "checks": {**outcome["checks"], workload.checks[0]: "FAIL"}}
        assert workloads.gate(workload, failing)
        assert workloads.gate(workload, {**outcome, "exit_code": 1})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_notes_cover_every_workload_and_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "benchmark_notes.json")) as fh:
        notes = json.load(fh)
    names = set(workloads.WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(notes["workloads"]) == names
    assert set(notes["interactions"]) == {m["name"] for m in SPEC["per_layer"]}
    for entry in notes["interactions"].values():
        assert set(entry["flat_on"]) <= names
        for metric, moved in entry["moves"].items():
            assert metric in end_to_end
            assert set(moved) <= names
