"""Bulk (Doerfler) marking: exact minimal and binned almost-minimal.

Both variants return a set of elements whose squared indicators sum to at
least ``theta`` times the total. ``mark_min`` realises the minimal
cardinality by a descending sort; ``mark_binned`` trades minimality for
linear run time by grouping indicators into powers-of-two bins, which
keeps the cardinality within a factor of two of minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AllZeroIndicators(ValueError):
    """All indicators vanish: the driver treats this as converged."""


@dataclass(frozen=True)
class MarkingResult:
    marked: np.ndarray
    achieved_fraction: float

    def __post_init__(self):
        self.marked.setflags(write=False)


def _validated(indicators_sq, theta):
    values = np.asarray(indicators_sq, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("indicators must be a non-empty 1-d array")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("indicators must be finite and non-negative")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if not np.any(values > 0.0):
        raise AllZeroIndicators("all indicators are zero: converged")
    return values


def mark_min(indicators_sq, theta):
    """Smallest set whose indicator sum reaches the theta fraction.

    Sorts descending and takes the shortest prefix; ties are broken by
    ascending element index, so the result is deterministic.
    """
    values = _validated(indicators_sq, theta)
    order = np.argsort(-values, kind="stable")
    csum = np.cumsum(values[order])
    total = csum[-1]
    k = int(np.searchsorted(csum, theta * total, side="left"))
    k = min(k, int(np.count_nonzero(values)) - 1)
    marked = np.sort(order[: k + 1])
    return MarkingResult(marked=marked, achieved_fraction=float(csum[k] / total))


def mark_binned(indicators_sq, theta):
    """Almost-minimal marking by power-of-two binning, no comparison sort.

    Whole bins are taken in descending magnitude until the last needed
    bin, which is filled element by element (ascending index); within a
    bin all values agree up to a factor of two, which yields a marked set
    at most twice as large as the minimal one.
    """
    values = _validated(indicators_sq, theta)

    positive = values > 0.0
    # bin index via exponent arithmetic: value in (max * 2^-(b+1), max * 2^-b]
    mant, expo = np.frexp(values[positive])
    mant_max, expo_max = np.frexp(values.max())
    bins = (expo_max - expo) - (mant > mant_max)
    pos_idx = np.nonzero(positive)[0]

    # one accumulation order throughout (per bin in element order, then
    # across bins) keeps the theta = 1 case exact
    bin_sums = np.bincount(bins, weights=values[positive])
    csum_bins = np.cumsum(bin_sums)
    total = float(csum_bins[-1])
    threshold = theta * total
    last_bin = int(np.searchsorted(csum_bins, threshold, side="left"))
    last_bin = min(last_bin, bin_sums.size - 1)

    take_whole = bins < last_bin
    acc = float(csum_bins[last_bin - 1]) if last_bin > 0 else 0.0
    tail = pos_idx[bins == last_bin]
    tail_csum = acc + np.cumsum(values[tail])
    need = int(np.searchsorted(tail_csum, threshold, side="left"))
    need = min(need, tail.size - 1)
    achieved = float(tail_csum[need])

    marked = np.sort(np.concatenate([pos_idx[take_whole], tail[: need + 1]]))
    return MarkingResult(marked=marked, achieved_fraction=achieved / total)
