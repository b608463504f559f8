"""Synthetic traces for the checker tests."""

import numpy as np

from triafem.driver import AfemTrace


def synthetic_trace(eta_sq, **overrides):
    """Trace from raw columns; anything not supplied is padded."""
    eta_sq = np.asarray(eta_sq, dtype=float)
    n = eta_sq.size
    columns = {
        "ell": np.arange(n, dtype=float),
        "n_elements": overrides.pop("n_elements", 4.0 * 2.0 ** np.arange(n)),
        "n_vertices": np.full(n, np.nan),
        "n_marked": np.full(n, np.nan),
        "n_refined": np.full(n, np.nan),
        "eta_sq": eta_sq,
        "osc_sq": np.zeros(n),
        "refined_eta_sq": np.full(n, np.nan),
        "grad_diff_sq": np.full(n, np.nan),
        "energy_diff_sq": np.full(n, np.nan),
        "err_energy_sq": np.full(n, np.nan),
        "wall_time_s": np.zeros(n),
    }
    meta = overrides.pop("meta", {})
    for name, value in overrides.items():
        if name not in columns:
            raise TypeError(f"unknown trace column {name!r}")
        arr = np.asarray(value, dtype=float)
        if arr.size != n:
            raise ValueError(f"column {name!r} has wrong length")
        columns[name] = arr.astype(float)
    return AfemTrace(columns=columns, meta=dict(meta))
