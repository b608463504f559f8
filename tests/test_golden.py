"""Golden runs: three small CLI runs must reproduce their recorded artefacts.

``tests/golden/<problem>/`` holds every deterministic artefact of one run:
``trace.csv`` without its ``wall_time_s`` column, ``report.txt``,
``plotdata.csv``, ``failures.json``, ``meta.json`` and both mesh files. A
change that claims to leave the arithmetic alone must keep all of them byte
for byte; a change that means to alter them re-records the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why. A failure, and
the re-recording, name what moved: each differing ``trace.csv`` column with
its largest relative difference and each differing ``meta.json`` key, as
``scripts/pairs.py`` reports them.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest

from helpers_trace import without_varying_columns
from triafem.cli import execute, parse_config

GOLDEN = Path(__file__).parent / "golden"
LINEAR_CHECKS = ("estimator_reduction,rlinear,marking_optimality,"
                 "discrete_reliability,mesh_audit,rate")
RUNS = {
    "lshape_poisson": ("300", LINEAR_CHECKS),
    "magnetostatics_nl": ("200", LINEAR_CHECKS + ",quasi_orthogonality"),
    # the paper's non-symmetric operator
    "convection_diffusion": ("2000", LINEAR_CHECKS + ",quasi_orthogonality"),
}
ARTEFACTS = ("trace.csv", "report.txt", "plotdata.csv", "failures.json", "meta.json",
             "meshes/initial.mesh", "meshes/final.mesh")
PAIRS = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"


def _moved(problem, name, recorded, produced):
    """What moved in one artefact from its recorded golden to this run."""
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    details = ", ".join(pairs.file_differences(name, recorded, produced))
    return f"{problem}/{name} moved from its golden" + (f": {details}" if details else "")


def _run(problem, out):
    """Run one golden configuration into ``out``; returns artefact name -> bytes."""
    max_elements, checks = RUNS[problem]
    execute(parse_config(["--problem", problem, "--theta", "0.5",
                          "--max-elements", max_elements, "--checks", checks,
                          "--out", str(out)]))
    files = {name: (out / name).read_bytes() for name in ARTEFACTS}
    files["trace.csv"] = without_varying_columns(files["trace.csv"].decode()).encode()
    return files


@pytest.mark.parametrize("problem", sorted(RUNS))
def test_cli_run_matches_golden_trace(problem, tmp_path):
    files = _run(problem, tmp_path / problem)
    for name in ARTEFACTS:
        recorded = (GOLDEN / problem / name).read_bytes()
        assert files[name] == recorded, _moved(problem, name, recorded, files[name])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for problem in sorted(RUNS):
            for name, data in _run(problem, Path(scratch) / problem).items():
                path = GOLDEN / problem / name
                if path.is_file() and path.read_bytes() != data:
                    print(_moved(problem, name, path.read_bytes(), data))
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
