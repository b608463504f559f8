import numpy as np
import pytest
from helpers_marking import oracle_min_cardinality
from hypothesis import given, settings
from hypothesis import strategies as st

from triafem.marking import mark_binned, mark_min


def test_example_vector():
    result = mark_min([4.0, 3.0, 2.0, 1.0], 0.5)
    assert list(result.marked) == [0, 1]
    assert result.achieved_fraction == pytest.approx(0.7)
    assert oracle_min_cardinality([4.0, 3.0, 2.0, 1.0], 0.5) == 2


def test_theta_one_marks_all_nonzero():
    result = mark_min([2.0, 0.0, 1.0, 3.0], 1.0)
    assert list(result.marked) == [0, 2, 3]
    assert result.achieved_fraction == 1.0
    binned = mark_binned([2.0, 0.0, 1.0, 3.0], 1.0)
    assert list(binned.marked) == [0, 2, 3]
    assert binned.achieved_fraction >= 1.0


def test_tie_break_prefers_smallest_index():
    # 1 >= 0.25 * 4 with equality: a single element suffices, index 0 wins
    result = mark_min([1.0, 1.0, 1.0, 1.0], 0.25)
    assert list(result.marked) == [0]
    assert result.achieved_fraction == pytest.approx(0.25)


def test_all_zero_indicators_are_rejected():
    # nothing to mark: the loop stops on a zero eta^2 before it marks
    with pytest.raises(ValueError, match="all indicators are zero"):
        mark_min([0.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="all indicators are zero"):
        mark_binned([0.0, 0.0], 0.5)


@pytest.mark.parametrize("mark", [mark_min, mark_binned])
@pytest.mark.parametrize("indicators", [[[1.0, 2.0], [3.0, 4.0]], [], 1.0],
                         ids=["2-d", "empty", "scalar"])
def test_indicators_must_be_a_non_empty_1d_array(mark, indicators):
    with pytest.raises(ValueError, match="^indicators must be a non-empty 1-d array$"):
        mark(indicators, 0.5)


def test_invalid_inputs():
    with pytest.raises(ValueError, match="theta"):
        mark_min([1.0], 0.0)
    with pytest.raises(ValueError, match="theta"):
        mark_min([1.0], 1.5)
    with pytest.raises(ValueError):
        mark_min([-1.0, 2.0], 0.5)


def test_against_exhaustive_oracle():
    # integer-valued indicators keep every subset sum exact in float64
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        values = rng.integers(0, 100, size=n).astype(float)
        if not values.any():
            values[rng.integers(0, n)] = 1.0
        theta = float(rng.uniform(0.05, 1.0))
        result = mark_min(values, theta)
        assert values[result.marked].sum() >= theta * values.sum()
        assert result.marked.size == oracle_min_cardinality(values, theta)


def test_binned_single_nonzero():
    values = [0.0, 0.0, 5.0, 0.0]
    assert list(mark_binned(values, 0.7).marked) == [2]
    assert list(mark_min(values, 0.7).marked) == [2]


def test_binned_geometric_within_factor_two():
    values = np.array([2.0**-k for k in range(20)])
    minimal = mark_min(values, 0.5)
    binned = mark_binned(values, 0.5)
    assert binned.achieved_fraction >= 0.5
    assert binned.marked.size <= 2 * minimal.marked.size


def test_binned_uniform_matches_minimal_cardinality():
    values = np.ones(17)
    minimal = mark_min(values, 0.3)
    binned = mark_binned(values, 0.3)
    assert binned.marked.size == minimal.marked.size


def test_binned_bound_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        values = rng.integers(0, 1000, size=n).astype(float)
        if not values.any():
            values[0] = 1.0
        theta = float(rng.uniform(0.05, 1.0))
        minimal = mark_min(values, theta)
        binned = mark_binned(values, theta)
        assert values[binned.marked].sum() >= theta * values.sum() * (1 - 1e-15)
        assert binned.achieved_fraction >= theta
        assert binned.marked.size <= 2 * minimal.marked.size


def test_monotone_in_theta():
    rng = np.random.default_rng(2)
    values = rng.integers(0, 50, size=25).astype(float)
    values[3] = 7.0
    thetas = np.linspace(0.05, 1.0, 24)
    counts = [mark_min(values, t).marked.size for t in thetas]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_scale_invariance_powers_of_two():
    rng = np.random.default_rng(3)
    values = rng.integers(1, 100, size=18).astype(float)
    base = mark_min(values, 0.6)
    for alpha in (0.25, 0.5, 2.0, 1024.0):
        scaled = mark_min(alpha * values, 0.6)
        assert np.array_equal(scaled.marked, base.marked)


def test_nonempty_whenever_total_positive():
    result = mark_min([0.0, 1e-300], 0.1)
    assert result.marked.size == 1
    assert result.achieved_fraction >= 0.1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=11),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_property_doerfler_and_minimality(ints, theta):
    values = np.asarray(ints, dtype=float)
    if not values.any():
        values[0] = 1.0
    result = mark_min(values, theta)
    binned = mark_binned(values, theta)
    assert values[result.marked].sum() >= theta * values.sum()
    assert result.achieved_fraction >= theta
    assert binned.achieved_fraction >= theta
    assert result.marked.size == oracle_min_cardinality(values, theta)
    assert binned.marked.size <= 2 * result.marked.size
