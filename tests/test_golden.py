"""Golden traces: two small CLI runs must reproduce recorded outputs.

``tests/golden/<problem>/`` holds ``trace.csv`` without its
``wall_time_s`` column and ``report.txt`` of one run each. A change that
claims to leave the arithmetic alone must keep both byte for byte; a
change that means to alter them re-records the files and says why.
"""

from pathlib import Path

import pytest

from triafem.cli import execute, parse_config

GOLDEN = Path(__file__).parent / "golden"
LINEAR_CHECKS = ("estimator_reduction,rlinear,marking_optimality,"
                 "discrete_reliability,mesh_audit,rate")
RUNS = {
    "lshape_poisson": ("300", LINEAR_CHECKS),
    "magnetostatics_nl": ("200", LINEAR_CHECKS + ",quasi_orthogonality"),
}


def _without_wall_time(text):
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index("wall_time_s")
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows) + "\n"


@pytest.mark.parametrize("problem", sorted(RUNS))
def test_cli_run_matches_golden_trace(problem, tmp_path):
    max_elements, checks = RUNS[problem]
    out = tmp_path / problem
    execute(parse_config(["--problem", problem, "--theta", "0.5",
                          "--max-elements", max_elements, "--checks", checks,
                          "--out", str(out)]))
    trace = _without_wall_time((out / "trace.csv").read_text())
    assert trace == (GOLDEN / problem / "trace.csv").read_text()
    assert (out / "report.txt").read_bytes() == (GOLDEN / problem / "report.txt").read_bytes()
