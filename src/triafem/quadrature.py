"""Fixed quadrature rules shared by assembly and error estimation.

Volume integrals use the symmetric 7-point rule on triangles (exact for
polynomials up to degree 5), edge integrals the 3-point Gauss rule on a
segment (exact up to degree 5). Weights are normalised so that a rule sums
to 1; callers multiply by the element area or edge length.
"""

from __future__ import annotations

import numpy as np

_SQRT15 = np.sqrt(15.0)

# barycentric coordinates (7, 3) and weights (7,), weights sum to 1
_B1 = (6.0 + _SQRT15) / 21.0
_A1 = 1.0 - 2.0 * _B1
_B2 = (6.0 - _SQRT15) / 21.0
_A2 = 1.0 - 2.0 * _B2
_W1 = (155.0 + _SQRT15) / 1200.0
_W2 = (155.0 - _SQRT15) / 1200.0

TRI_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [_A1, _B1, _B1],
        [_B1, _A1, _B1],
        [_B1, _B1, _A1],
        [_A2, _B2, _B2],
        [_B2, _A2, _B2],
        [_B2, _B2, _A2],
    ]
)
TRI_WEIGHTS = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])

# 3-point Gauss on [0, 1]
EDGE_POINTS = np.array([0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0])
EDGE_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def triangle_points(p0, p1, p2):
    """Physical quadrature points for triangles given as corner arrays.

    Each of ``p0, p1, p2`` has shape (n, 2); the result has shape (n, 7, 2).
    Every product runs over whole corner arrays along a leading point axis;
    the last sum writes into the per-element layout.
    """
    lam = TRI_BARY.T[:, :, None, None]
    points = np.empty((p0.shape[0], lam.shape[1], 2))
    np.add(lam[0] * p0 + lam[1] * p1, lam[2] * p2, out=points.transpose(1, 0, 2))
    return points


def edge_points(pa, pb):
    """Physical Gauss points on segments; ``pa, pb`` of shape (n, 2) -> (n, 3, 2)."""
    s = EDGE_POINTS[:, None, None]
    points = np.empty((pa.shape[0], s.shape[0], 2))
    np.add((1.0 - s) * pa, s * pb, out=points.transpose(1, 0, 2))
    return points
