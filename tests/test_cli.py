import json
from types import SimpleNamespace

import pytest

from helpers_trace import without_varying_columns
from triafem import cli
from triafem.cli import ConfigError, execute, main, parse_config
from triafem.driver import AfemTrace
from triafem.mesh import write_mesh
from triafem.problems import builtin_problem


def test_flags_only_config():
    config = parse_config(
        ["--problem", "lshape_poisson", "--theta", "0.5", "--max-elements", "100000"]
    )
    assert config.problem == "lshape_poisson"
    assert config.theta == (0.5,)
    assert config.max_elements == 100000
    assert config.marking == "min"


def test_theta_out_of_range_names_key():
    with pytest.raises(ConfigError, match="theta"):
        parse_config(["--problem", "square_smooth", "--theta", "1.5", "--max-elements", "100"])


def test_unknown_problem_names_key():
    with pytest.raises(ConfigError, match="problem"):
        parse_config(["--problem", "nope", "--theta", "0.5", "--max-elements", "100"])


def test_unknown_check_names_key():
    with pytest.raises(ConfigError, match="checks"):
        parse_config(
            ["--problem", "square_smooth", "--theta", "0.5", "--max-elements", "100",
             "--checks", "rlinear,bogus"]
        )


def test_missing_stopping_rule():
    with pytest.raises(ConfigError, match="max_elements"):
        parse_config(["--problem", "square_smooth"])


@pytest.mark.parametrize("key,flags", [
    ("theta", ["--theta", "abc"]),
    ("theta", ["--theta", "0.5,"]),
    # both values would write to the sweep directory theta=0.5
    ("theta", ["--theta", "0.5,0.5000001"]),
    ("max_elements", ["--max-elements", "abc"]),
    ("marking", ["--marking", "foo"]),
    ("qo_epsilon", ["--qo-epsilon", "1.5"]),
    ("eta_tol", ["--eta-tol", "-1"]),
    ("eta_tol", ["--eta-tol", "nan"]),
    # a repeated check would run twice and write two CHECK lines
    ("checks", ["--checks", "rate,rlinear,rate"]),
], ids=["theta-abc", "theta-trailing-comma", "theta-shared-directory", "max_elements-file-abc",
        "marking-file-foo", "qo_epsilon-1.5", "eta_tol-negative", "eta_tol-nan",
        "checks-repeated"])
def test_bad_value_names_key(key, flags):
    argv = ["--problem", "square_smooth"] + flags
    if key != "max_elements":
        argv += ["--max-elements", "100"]
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        parse_config(argv)


@pytest.mark.parametrize("flags", [["--config", "run.cfg"], ["--jobs", "2"]],
                         ids=["config", "jobs"])
def test_flags_that_are_not_keys_exit_2(tmp_path, flags):
    argv = ["--problem", "square_smooth", "--max-elements", "100", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2


def test_execute_writes_artifacts_and_exits_zero(tmp_path):
    out = tmp_path / "run"
    config = parse_config(
        ["--problem", "square_smooth", "--theta", "0.5", "--max-elements", "800",
         "--out", str(out), "--uniform-baseline",
         "--checks", "estimator_reduction,rlinear,marking_optimality,"
                     "discrete_reliability,mesh_audit,rate"]
    )
    assert execute(config) == 0
    for name in ("trace.csv", "trace_uniform.csv", "meta.json", "report.txt",
                 "failures.json", "plotdata.csv", "plot_traces.py"):
        assert (out / name).exists(), name
    assert (out / "meshes" / "initial.mesh").exists()
    assert (out / "meshes" / "final.mesh").exists()
    assert json.loads((out / "failures.json").read_text()) == []
    report = (out / "report.txt").read_text()
    assert "CHECK estimator_reduction: PASS" in report


def test_eta_tol_met_immediately_exits_zero(tmp_path):
    out = tmp_path / "short"
    config = parse_config(
        ["--problem", "square_smooth", "--theta", "0.5", "--eta-tol", "1000",
         "--out", str(out)]
    )
    assert execute(config) == 0
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == 2  # header plus the single iteration
    # short-trace checks are skipped, not failed
    report = (out / "report.txt").read_text()
    assert "SKIP" in report


def test_a_run_without_refinement_skips_the_checks_that_need_one(tmp_path):
    # square_smooth starts from 4 elements: the trace has a single row
    out = tmp_path / "tiny"
    assert main(["--problem", "square_smooth", "--max-elements", "4", "--out", str(out),
                 "--checks", "marking_optimality,convergence,mesh_audit"]) == 0
    assert (out / "report.txt").read_text().splitlines()[1:] == [
        f"CHECK {name}: SKIP the trace has no refinement step"
        for name in ("marking_optimality", "convergence", "mesh_audit")]


def test_every_check_line_prints_its_checkers_result(tmp_path):
    # each line is the status and detail of the check's result, recomputed
    # here from the written traces and meta.json
    out = tmp_path / "all"
    config = parse_config(["--problem", "square_smooth", "--max-elements", "2500",
                           "--out", str(out), "--uniform-baseline", "--qo-epsilon", "0.01",
                           "--checks", ",".join(cli.CHECKS)])
    execute(config)
    meta = json.loads((out / "meta.json").read_text())["trace_meta"]
    result, uniform = (SimpleNamespace(trace=AfemTrace.from_csv(out / name, meta=meta))
                       for name in ("trace.csv", "trace_uniform.csv"))
    checks = {name: cli.CHECKS[name](result, config, uniform) for name in cli.CHECKS}
    assert (out / "report.txt").read_text().splitlines()[1:] == [
        f"CHECK {name}: {check.status.upper()} {check.detail}" for name, check in checks.items()]


def test_failing_check_gives_nonzero_exit(tmp_path):
    # a short run cannot reduce the estimator by 100x: convergence fails
    out = tmp_path / "fail"
    config = parse_config(
        ["--problem", "square_smooth", "--theta", "0.5", "--max-elements", "64",
         "--out", str(out), "--checks", "convergence"]
    )
    assert execute(config) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert failures and failures[0]["check"] == "convergence"


def test_run_failure_writes_partial_trace(tmp_path, monkeypatch):
    from triafem import driver
    from triafem.mesh import MeshError

    def broken_audit(old_mesh, new_mesh, record):
        raise MeshError("bisection did not halve the element area")

    monkeypatch.setattr(driver, "audit_refinement", broken_audit)
    out = tmp_path / "broken"
    config = parse_config(
        ["--problem", "square_smooth", "--theta", "0.5", "--max-elements", "200",
         "--out", str(out)]
    )
    assert execute(config) == 1
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == 2  # header plus the iteration that refined
    assert "audit failed at iteration 0" in (out / "report.txt").read_text()
    failures = json.loads((out / "failures.json").read_text())
    assert failures[0]["check"] == "run"


def test_uniform_run_failure_writes_partial_trace(tmp_path, monkeypatch):
    from helpers_trace import synthetic_trace

    from triafem.driver import AfemRunError

    def broken_uniform(problem, **kwargs):
        partial = synthetic_trace([1.0, 0.5])
        raise AfemRunError("refine failed at iteration 1: no memory", partial, "refine")

    monkeypatch.setattr(cli, "run_uniform", broken_uniform)
    out = tmp_path / "uniform"
    config = parse_config(
        ["--problem", "square_smooth", "--theta", "0.5", "--max-elements", "200",
         "--uniform-baseline", "--out", str(out)]
    )
    assert execute(config) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["check"] for f in failures] == ["uniform_run"]
    assert "refine failed at iteration 1" in failures[0]["detail"]
    assert len((out / "trace_uniform.csv").read_text().strip().splitlines()) == 3
    assert (out / "report.txt").read_text().startswith("RUN: FAIL refine failed")
    # the adaptive run finished, so its trace is kept
    assert len((out / "trace.csv").read_text().strip().splitlines()) > 3


def test_max_elements_below_initial_mesh(tmp_path):
    config = parse_config(
        ["--problem", "lshape_poisson", "--theta", "0.5", "--max-elements", "2",
         "--out", str(tmp_path / "x")]
    )
    with pytest.raises(ConfigError, match="max_elements"):
        execute(config)


@pytest.mark.parametrize("theta", ["0.5", "0.3,0.7"], ids=["single", "sweep"])
def test_max_elements_below_initial_mesh_exits_2_and_writes_nothing(tmp_path, capsys, theta):
    out = tmp_path / "x"
    code = main(["--problem", "lshape_poisson", "--theta", theta, "--max-elements", "3",
                 "--out", str(out)])
    assert code == 2
    assert "key 'max_elements'" in capsys.readouterr().err
    assert not out.exists()


def test_determinism_of_sequential_runs(tmp_path):
    def run(theta, name):
        out = tmp_path / name
        assert execute(parse_config(["--problem", "convection_diffusion", "--theta", theta,
                                     "--max-elements", "600", "--out", str(out)])) == 0
        return out

    outs = [run("0.4", "a"), run("0.4", "b")]
    # everything but the wall time must agree byte for byte
    traces = [without_varying_columns((out / "trace.csv").read_text()) for out in outs]
    assert traces[0] == traces[1]
    assert (outs[0] / "plotdata.csv").read_bytes() == (outs[1] / "plotdata.csv").read_bytes()
    assert (outs[0] / "meta.json").read_bytes() == (outs[1] / "meta.json").read_bytes()

    # a sweep writes, for each theta, what that theta's single run writes
    sweep = run("0.4,0.7", "sweep")
    for theta, single in (("0.4", outs[0]), ("0.7", run("0.7", "c"))):
        swept = sweep / f"theta={theta}"
        assert without_varying_columns((swept / "trace.csv").read_text()) == \
            without_varying_columns((single / "trace.csv").read_text())
        for name in ("report.txt", "plotdata.csv", "meta.json"):
            assert (swept / name).read_bytes() == (single / name).read_bytes(), name


def test_sweep_runs_one_uniform_baseline(tmp_path, monkeypatch):
    # run_uniform does not read theta: a sweep runs it once, and each theta
    # writes what its single run writes
    calls = []
    run_uniform = cli.run_uniform

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return run_uniform(*args, **kwargs)

    monkeypatch.setattr(cli, "run_uniform", counted)
    flags = ["--problem", "lshape_poisson", "--max-elements", "500", "--uniform-baseline"]
    sweep = tmp_path / "sweep"
    assert execute(parse_config(flags + ["--theta", "0.3,0.7", "--out", str(sweep)])) == 0
    assert len(calls) == 1
    for theta in ("0.3", "0.7"):
        single = tmp_path / theta
        assert execute(parse_config(flags + ["--theta", theta, "--out", str(single)])) == 0
        swept = sweep / f"theta={theta}"
        assert _files(swept) == _files(single) == sorted(cli.ARTEFACTS)
        for name in _files(single):
            if name.startswith("trace"):
                assert without_varying_columns((swept / name).read_text()) == \
                    without_varying_columns((single / name).read_text()), name
            else:
                assert (swept / name).read_bytes() == (single / name).read_bytes(), name


def test_initial_mesh_artifact_is_the_problem_mesh(tmp_path):
    # the default checks need no run history; the initial mesh is still written
    out = tmp_path / "run"
    config = parse_config(["--problem", "lshape_poisson", "--theta", "0.5",
                           "--max-elements", "200", "--out", str(out)])
    assert execute(config) == 0
    expected = tmp_path / "expected.mesh"
    write_mesh(builtin_problem("lshape_poisson").make_initial_mesh(), expected)
    assert (out / "meshes" / "initial.mesh").read_bytes() == expected.read_bytes()
    assert (out / "meshes" / "final.mesh").read_bytes() != expected.read_bytes()


def test_theta_sweep_writes_subdirectories(tmp_path):
    out = tmp_path / "sweep"
    config = parse_config(
        ["--problem", "square_smooth", "--theta", "0.3,0.6", "--max-elements", "300",
         "--out", str(out), "--checks", "estimator_reduction"]
    )
    assert execute(config) == 0
    assert (out / "theta=0.3" / "trace.csv").exists()
    assert (out / "theta=0.6" / "trace.csv").exists()


def test_sweep_with_a_failing_run_exits_1_and_keeps_the_other_runs(tmp_path, monkeypatch):
    from helpers_trace import synthetic_trace

    from triafem.driver import AfemRunError

    run_afem = cli.run_afem

    def failing_at_07(problem, theta, *args, **kwargs):
        if theta == 0.7:
            partial = synthetic_trace([1.0, 0.5])
            raise AfemRunError("solve failed at iteration 2: singular", partial, "solve")
        return run_afem(problem, theta, *args, **kwargs)

    monkeypatch.setattr(cli, "run_afem", failing_at_07)
    out = tmp_path / "sweep"
    config = parse_config(["--problem", "square_smooth", "--theta", "0.4,0.7",
                           "--max-elements", "200", "--out", str(out)])
    assert execute(config) == 1
    assert _files(out / "theta=0.4") == sorted(set(cli.ARTEFACTS) - {"trace_uniform.csv"})
    assert json.loads((out / "theta=0.4" / "failures.json").read_text()) == []
    failures = json.loads((out / "theta=0.7" / "failures.json").read_text())
    assert [f["check"] for f in failures] == ["run"]
    assert (out / "theta=0.7" / "report.txt").read_text().startswith("RUN: FAIL")


def test_main_reports_config_errors():
    assert main(["--problem", "square_smooth", "--theta", "2.0",
                 "--max-elements", "100"]) == 2


def test_quasi_orthogonality_check_through_cli(tmp_path):
    out = tmp_path / "qo"
    config = parse_config(
        ["--problem", "square_smooth", "--theta", "0.5", "--max-elements", "2500",
         "--out", str(out), "--checks", "quasi_orthogonality", "--qo-epsilon", "0.01"]
    )
    assert execute(config) == 0
    report = (out / "report.txt").read_text()
    assert "quasi_orthogonality: PASS" in report
    assert "usable=0" not in report


def test_checks_look_up_their_checkers_at_call_time(tmp_path, monkeypatch):
    # a tracer patches these names on the cli module; each check must reach
    # the patched function, not one bound when the module was loaded
    names = ("check_estimator_reduction", "check_rlinear", "check_quasi_orthogonality",
             "check_marking_optimality", "check_discrete_reliability",
             "check_convergence", "fit_rate")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    config = parse_config(["--problem", "square_smooth", "--theta", "0.5",
                           "--max-elements", "300", "--out", str(tmp_path / "run"),
                           "--checks", ",".join(cli.CHECKS)])
    execute(config)
    assert calls == dict.fromkeys(names, 1)


def test_rate_with_uniform_baseline_reports_the_adaptive_rate(tmp_path):
    # the uniform run is too short for its own rate fit: the adaptive rate
    # still passes, and the uniform rate is marked as skipped with the reason
    out = tmp_path / "rate"
    config = parse_config(
        ["--problem", "lshape_poisson", "--max-elements", "2000", "--checks", "rate",
         "--uniform-baseline", "--out", str(out)]
    )
    assert execute(config) == 0
    report = (out / "report.txt").read_text()
    assert ("CHECK rate: PASS rate=0.4654 residual=0.0185 uniform_rate=skipped "
            "(rate fit needs at least 6 points in the window)\n") in report


def _files(out):
    return sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())


def test_reused_out_keeps_no_artefact_of_an_earlier_run(tmp_path):
    # the L-shape run writes a uniform trace, the square run does not
    out = tmp_path / "reused"
    (tmp_path / "reused").mkdir()
    (out / "notes.txt").write_text("kept\n")
    first = ["--problem", "lshape_poisson", "--max-elements", "500", "--uniform-baseline",
             "--out", str(out)]
    assert execute(parse_config(first)) == 0
    assert (out / "trace_uniform.csv").exists()
    assert execute(parse_config(["--problem", "square_smooth", "--max-elements", "200",
                                 "--out", str(out)])) == 0
    assert not (out / "trace_uniform.csv").exists()
    assert "problem=square_smooth" in (out / "report.txt").read_text()
    assert "uniform" not in (out / "plotdata.csv").read_text()
    assert (out / "notes.txt").read_text() == "kept\n"


def test_failing_run_leaves_no_artefact_of_an_earlier_run(tmp_path, monkeypatch):
    from triafem import driver
    from triafem.mesh import MeshError

    out = tmp_path / "reused"
    flags = ["--problem", "square_smooth", "--max-elements", "200", "--uniform-baseline",
             "--out", str(out)]
    assert execute(parse_config(flags)) == 0

    def broken_audit(old_mesh, new_mesh, record):
        raise MeshError("bisection did not halve the element area")

    monkeypatch.setattr(driver, "audit_refinement", broken_audit)
    assert execute(parse_config(flags)) == 1
    assert _files(out) == ["failures.json", "report.txt", "trace.csv"]
    assert len((out / "trace.csv").read_text().strip().splitlines()) == 2


def test_sweep_after_a_single_run_keeps_none_of_its_artefacts(tmp_path):
    out = tmp_path / "reused"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    single = ["--problem", "square_smooth", "--max-elements", "200", "--uniform-baseline",
              "--out", str(out)]
    assert execute(parse_config(single)) == 0
    assert (out / "meshes" / "final.mesh").exists()
    assert execute(parse_config(["--problem", "square_smooth", "--max-elements", "200",
                                 "--theta", "0.3,0.5", "--out", str(out)])) == 0
    top = sorted(p.name for p in out.iterdir())
    assert top == ["notes.txt", "theta=0.3", "theta=0.5"]
    assert _files(out / "theta=0.3") == sorted(set(cli.ARTEFACTS) - {"trace_uniform.csv"})


def test_single_run_after_a_sweep_keeps_none_of_its_directories(tmp_path):
    out = tmp_path / "reused"
    sweep = ["--problem", "square_smooth", "--max-elements", "200", "--theta", "0.3,0.5",
             "--out", str(out)]
    assert execute(parse_config(sweep)) == 0
    (out / "theta=0.5" / "meshes" / "notes.txt").write_text("kept\n")
    (out / "theta=other").mkdir()
    assert execute(parse_config(["--problem", "square_smooth", "--max-elements", "200",
                                 "--out", str(out)])) == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
        "meshes", "theta=0.5", "theta=other"]
    assert _files(out / "theta=0.5") == ["meshes/notes.txt"]
    assert "problem=square_smooth theta=0.5 " in (out / "report.txt").read_text()
