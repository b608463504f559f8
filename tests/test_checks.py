"""The array forms of the checks against their per-step loop forms, and the
verdicts on estimators that are not finite or span more than the float range,
and on an empty trace."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from helpers_trace import (
    aborted_at_the_first_solve,
    discrete_reliability_loop,
    estimator_reduction_loop,
    marking_optimality_loop,
    quasi_orthogonality_loop,
    rlinear_bisection,
    synthetic_trace,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from triafem import cli
from triafem.checks import (
    check_discrete_reliability,
    check_estimator_reduction,
    check_marking_optimality,
    check_quasi_orthogonality,
    check_rlinear,
)
from triafem.driver import TRACE_COLUMNS, AfemTrace

SPECIAL = (0.0, math.nan, math.inf, -math.inf)
COLUMNS = ("eta_sq", "grad_diff_sq", "refined_eta_sq", "energy_diff_sq", "err_energy_sq")


def _cells(special=SPECIAL):
    return st.one_of(st.sampled_from(special), st.floats(1e-12, 1e3), st.floats(-1.0, 1.0))


@st.composite
def traces(draw, special=SPECIAL):
    """A trace of 1 to 40 rows drawn, with repetition, from up to 40
    distinct rows whose cells include zeros, NaN and infinities; element
    counts meet the fit window's edge."""
    counts = st.sampled_from((math.nan, 0.0, 50.0, 100.0, 150.0, 200.0, 300.0))
    rows = draw(st.lists(st.tuples(*[_cells(special)] * len(COLUMNS), counts),
                         min_size=1, max_size=40))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40))
    data = np.array([rows[i] for i in picks], dtype=float)
    return synthetic_trace(data[:, 0], n_elements=data[:, -1], **{
        name: data[:, i] for i, name in enumerate(COLUMNS) if i})


def _outcome(check, trace, *args):
    """The check's result, or the type of the ``ValueError`` it raised;
    infinite and subnormal cells may overflow without a warning."""
    try:
        with np.errstate(all="ignore"):
            return check(trace, *args)
    except ValueError as exc:
        return type(exc)


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


@settings(max_examples=300)
@given(trace=traces(), epsilon=st.sampled_from((0.0, 0.1, 0.5)),
       theta=st.sampled_from((0.0, 0.3, 0.5, 1.0)))
def test_array_checks_match_their_loop_forms(trace, epsilon, theta):
    trace.meta["theta"] = theta
    for check, loop, args in (
            (check_estimator_reduction, estimator_reduction_loop, ()),
            (check_quasi_orthogonality, quasi_orthogonality_loop, (epsilon,)),
            (check_marking_optimality, marking_optimality_loop, ()),
            (check_discrete_reliability, discrete_reliability_loop, ())):
        new, old = _outcome(check, trace, *args), _outcome(loop, trace, *args)
        if isinstance(old, type):
            assert new is old
            continue
        assert (new.status, new.detail) == (old.status, old.detail)
        assert new.values.keys() == old.values.keys()
        for name in old.values:
            assert _same(new.values[name], old.values[name]), (check.__name__, name)


def _close(a, b):
    return a == b or math.isclose(a, b, rel_tol=1e-12) or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300)
@given(trace=traces())
def test_rlinear_closed_form_matches_the_bisection(trace):
    new, old = _outcome(check_rlinear, trace), _outcome(rlinear_bisection, trace)
    if isinstance(old, type):
        assert new is old
        return
    assert (new.status, new.detail) == (old.status, old.detail)
    assert new.values.keys() == old.values.keys()
    assert all(_close(new.values[name], old.values[name]) for name in old.values)


def _log_envelope(y, q):
    """log of the smallest C with exp(y_m) <= C q^(m - l) exp(y_l) for all l < m."""
    return max(y[m] - y[l] - (m - l) * math.log(q)
               for m in range(len(y)) for l in range(m))


@settings(max_examples=300)
@given(rate=st.floats(0.05, 0.95), noise=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=40))
def test_rlinear_rate_above_the_least_squares_rate_is_minimal(rate, noise):
    # a geometric decay with noise: about one draw in six needs a rate
    # above the least-squares one to keep the envelope within 100
    eta_sq = np.exp(np.arange(len(noise)) * math.log(rate) + np.array(noise))
    check = check_rlinear(synthetic_trace(eta_sq))
    y = np.log(eta_sq)
    q_ls = float(np.exp(np.polyfit(np.arange(y.size), y, 1)[0]))  # as the check takes it
    if not (check.passed and check.q_fit > q_ls):
        return
    log_cap = math.log(100.0)
    assert _log_envelope(y, check.q_fit) <= log_cap + 1e-12
    assert _log_envelope(y, check.q_fit * (1.0 - 1e-9)) > log_cap


BAD = object()  # the non-finite value under test


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("check, eta_sq, row", [
    # with +inf these passed with q_fit 0.158 ...
    ("rlinear", [BAD, 1, 0.5, 0.25, 0.125, 0.0625], 0),
    # ... flagged step 2 alone and printed q_fit=0 ...
    ("estimator_reduction", [BAD, BAD, 4, 8], 0),
    # ... passed with reduction=inf ...
    ("convergence", [BAD, 1, 0.5, 0.25, 0.125, 0.0625], 0),
    # ... and passed with rate=nan
    ("rate", [1, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, BAD], 7),
    ("marking_optimality", [1, BAD, 0.25], 1),
])
def test_a_nonfinite_estimator_fails_the_checks_that_read_it(check, eta_sq, row, bad):
    eta_sq = [bad if value is BAD else value for value in eta_sq]
    trace = synthetic_trace(eta_sq, n_elements=100.0 * np.arange(1, len(eta_sq) + 1),
                            meta={"theta": 0.5})
    [outcome] = cli._run_checks(SimpleNamespace(trace=trace), SimpleNamespace(checks=[check]),
                                None)
    # a rate cannot be fitted, so it is skipped
    assert outcome == {"check": check, "status": "skip" if check == "rate" else "fail",
                       "detail": f"non-finite eta_sq in row {row}"}


@pytest.mark.parametrize("eta_sq", ([1, 5e-324, 1, 5e-324, 0], [5e-324, 5e-324, 1, 0, 0]))
def test_rlinear_envelope_past_the_float_range_is_infinite(eta_sq):
    # log C_fit is about 744, past the float range, where math.exp raised
    result = check_rlinear(synthetic_trace(eta_sq))
    assert result.status == "fail" and result.c_fit == math.inf


@pytest.mark.parametrize("source", ("header-only file", "first solve failed"))
def test_every_check_skips_an_empty_trace(source, tmp_path):
    if source == "header-only file":
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n")
        trace = AfemTrace.from_csv(path)
    else:
        trace = aborted_at_the_first_solve()
    assert len(trace) == 0
    config = SimpleNamespace(checks=tuple(cli.CHECKS), qo_epsilon=0.5)
    outcomes = cli._run_checks(SimpleNamespace(trace=trace), config, None)
    assert [(o["check"], o["status"]) for o in outcomes] == [
        (name, "skip") for name in cli.CHECKS]
