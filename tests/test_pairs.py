"""The artefact comparison of ``scripts/pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = ("ell,eta_sq,err_energy_sq,wall_time_s\n"
         "0,0.5,{err0},0.1\n"
         "1,0.25,{err1},{wall}\n")


def _artefacts(folder, err0, err1, meta, wall="0.2"):
    folder.mkdir()
    (folder / "trace.csv").write_text(TRACE.format(err0=err0, err1=err1, wall=wall))
    (folder / "meta.json").write_text(json.dumps(meta))
    (folder / "report.txt").write_text("rate: pass\n")
    return str(folder)


def test_identical_artefacts_have_no_differences(pairs, tmp_path):
    meta = {"theta": 0.5, "noise_floor_err_sq": float("nan")}
    parent = _artefacts(tmp_path / "parent", "nan", "1.0", meta)
    change = _artefacts(tmp_path / "change", "nan", "1.0", meta, wall="0.3")
    assert pairs.differences(parent, change) == []


def test_differences_name_the_columns_and_keys(pairs, tmp_path):
    parent = _artefacts(tmp_path / "parent", "2.0", "4.0",
                        {"theta": 0.5, "trace_meta": {"noise_floor_err_sq": 1.0, "n": 2},
                         "gamma_max": 3.0})
    change = _artefacts(tmp_path / "change", "2.0", "4.000000000004",
                        {"theta": 0.5, "trace_meta": {"noise_floor_err_sq": 1.5, "n": 2},
                         "closure_constant": 1})
    (tmp_path / "change" / "report.txt").write_text("rate: fail\n")
    (tmp_path / "change" / "extra.csv").write_text("x\n")
    assert pairs.differences(parent, change) == [
        "extra.csv (only on one side)",
        "meta.json: closure_constant, gamma_max, trace_meta.noise_floor_err_sq",
        "report.txt",
        "trace.csv: err_energy_sq (1.00e-12)",
    ]


def test_report_differences_name_the_checks_and_their_verdicts(pairs, tmp_path):
    meta = {"theta": 0.5}
    parent = _artefacts(tmp_path / "parent", "2.0", "4.0", meta)
    change = _artefacts(tmp_path / "change", "2.0", "4.0", meta)
    (tmp_path / "parent" / "report.txt").write_text(
        "problem=p iterations=3\nCHECK rlinear: PASS q_fit=0.5\nCHECK rate: PASS rate=0.5\n"
        "CHECK mesh_audit: PASS closure=1\nCHECK convergence: FAIL reduction=2\n")
    (tmp_path / "change" / "report.txt").write_text(
        "problem=p iterations=3\nCHECK rlinear: FAIL q_fit=1\nCHECK rate: PASS rate=0.51\n"
        "CHECK mesh_audit: PASS closure=1\nCHECK discrete_reliability: SKIP no pairs\n")
    assert pairs.differences(parent, change) == [
        "report.txt: convergence (only in the parent), discrete_reliability (only in the change),"
        " rate (verdict PASS unchanged), rlinear (verdict PASS -> FAIL)"]


def test_trace_differences_of_shapes_and_non_finite_cells(pairs):
    parent = b"ell,a,b,wall_time_s\n0,1.0,nan,0.1\n"
    assert pairs.trace_differences(parent, b"ell,a,b,wall_time_s\n0,1.0,2.0,0.1\n") == [
        "b (inf)"]
    assert pairs.trace_differences(parent, b"ell,a,wall_time_s\n0,1.0,0.1\n") == [
        "b (only in the parent)"]
    assert pairs.trace_differences(
        parent, b"ell,a,b,wall_time_s\n0,1.0,nan,0.1\n1,1.0,nan,0.1\n") == [
        "a (1 rows against 2)", "b (1 rows against 2)", "ell (1 rows against 2)"]


def test_mesh_differences_count_vertices_and_triangles(pairs, tmp_path):
    # the change has one vertex at the mirror image of the parent's and one
    # more vertex and triangle; the renumbered side has the parent's
    # vertices and triangles in reverse order; the initial meshes agree
    meta = {"theta": 0.5}
    parent = _artefacts(tmp_path / "parent", "2.0", "4.0", meta)
    change = _artefacts(tmp_path / "change", "2.0", "4.0", meta)
    renumbered = _artefacts(tmp_path / "renumbered", "2.0", "4.0", meta)
    meshes = {
        parent: "4 2\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.25 0.75\n0 1 2 0\n0 2 3 0\n0 1 1\n",
        change: ("5 3\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.75 0.25\n0.5 0.5\n"
                 "0 1 2 0\n0 2 3 0\n2 3 4 0\n0 1 1\n"),
        renumbered: "4 2\n0.25 0.75\n1.0 1.0\n1.0 0.0\n0.0 0.0\n3 1 0 0\n3 2 1 0\n3 2 1\n",
    }
    for folder, text in meshes.items():
        (Path(folder) / "meshes").mkdir()
        (Path(folder) / "meshes" / "final.mesh").write_text(text)
        (Path(folder) / "meshes" / "initial.mesh").write_text("1 0\n0.0 0.0\n")
    assert pairs.differences(parent, change) == [
        "meshes/final.mesh: parent 4 vertices and 2 triangles, change 5 vertices and 3 triangles,"
        " 1 vertices only in the parent and 2 only in the change,"
        " 1 triangles only in the parent and 2 only in the change",
    ]
    assert pairs.differences(parent, renumbered) == [
        "meshes/final.mesh: parent 4 vertices and 2 triangles, change 4 vertices and 2 triangles,"
        " 0 vertices only in the parent and 0 only in the change,"
        " 0 triangles only in the parent and 0 only in the change",
    ]


def test_the_uniform_trace_is_compared_as_a_trace(pairs, tmp_path):
    # a run with a uniform baseline writes trace_uniform.csv: its wall
    # times may differ, and a differing column is named as in trace.csv
    meta = {"theta": 0.5}
    parent = _artefacts(tmp_path / "parent", "2.0", "4.0", meta)
    change = _artefacts(tmp_path / "change", "2.0", "4.0", meta)
    same = _artefacts(tmp_path / "same", "2.0", "4.0", meta)
    for folder, err1, wall in ((parent, "4.0", "0.2"), (change, "4.000000000004", "0.2"),
                               (same, "4.0", "0.3")):
        (Path(folder) / "trace_uniform.csv").write_text(
            TRACE.format(err0="2.0", err1=err1, wall=wall))
    assert pairs.differences(parent, same) == []
    assert pairs.differences(parent, change) == ["trace_uniform.csv: err_energy_sq (1.00e-12)"]


def test_both_checkouts_are_compiled_before_the_first_pair(pairs, tmp_path, monkeypatch):
    # a checkout made by git archive has no bytecode, and with
    # PYTHONDONTWRITEBYTECODE set no repetition writes it: both sides'
    # src/triafem must be compiled before the first repetition runs
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    checkouts = {}
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "triafem"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("VALUE = 1\n")
        checkouts[side] = tmp_path / side
    seen = []

    def fake_rep(checkout, workload, out):
        seen.append(sorted(p.name.split(".")[0] for p in
                           (Path(checkout) / "src" / "triafem" / "__pycache__").glob("*.pyc")))
        return {"wall_s": 1.0, "setup_s": 0.5, "elements_per_s": 10.0, "peak_rss_mb": 50.0}

    monkeypatch.setattr(pairs, "run_rep", fake_rep)
    assert pairs.main(["--parent", str(checkouts["parent"]), "--change",
                       str(checkouts["change"]), "--workload", "w", "--pairs", "1"]) == 0
    assert seen == [["__init__"], ["__init__"]]


def _claim_lines(pairs, parent_wall, change_wall):
    """The ``wall_s`` claim line of pairs that differ only in ``wall_s``."""
    other = {"setup_s": 0.5, "elements_per_s": 10.0, "peak_rss_mb": 50.0}
    lines = pairs.summarise([({**other, "wall_s": p}, {**other, "wall_s": c})
                             for p, c in zip(parent_wall, change_wall)])
    # ties win for neither side
    assert ("elements_per_s: claim rule not met: 0/10 wins, below nine tenths; median gain 0"
            " not above the parent's quartile spread 0") in lines
    return [line for line in lines if line.startswith("wall_s: claim rule")]


@pytest.mark.parametrize("change_wall, verdict", [
    # nine wins and a tie, the medians 0.19 apart against a quartile spread of 0.055
    ([1.0] + [p - 0.2 for p in (1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09)],
     "met"),
    # eight wins; the median gain 0.18 stays above the spread
    ([1.2, 1.21] + [p - 0.2 for p in (1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09)],
     "not met: 8/10 wins, below nine tenths"),
    # ten wins by 0.01, less than the quartile spread
    ([p - 0.01 for p in (1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09)],
     "not met: median gain 0.01 not above the parent's quartile spread 0.055"),
])
def test_summary_states_the_claim_rule(pairs, change_wall, verdict):
    parent_wall = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    assert _claim_lines(pairs, parent_wall, change_wall) == [f"wall_s: claim rule {verdict}"]


def test_every_varying_column_is_dropped(pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(pairs, "VARYING_COLUMNS", ("err_energy_sq", "wall_time_s"))
    meta = {"theta": 0.5}
    parent = _artefacts(tmp_path / "parent", "2.0", "4.0", meta)
    change = _artefacts(tmp_path / "change", "2.0", "5.0", meta, wall="0.3")
    assert pairs.artefact_bytes(str(tmp_path / "parent" / "trace.csv")) == \
        b"ell,eta_sq\n0,0.5\n1,0.25\n"
    assert pairs.differences(parent, change) == []
    assert pairs.trace_differences((tmp_path / "parent" / "trace.csv").read_bytes(),
                                   (tmp_path / "change" / "trace.csv").read_bytes()) == []
