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
    """
    lam = TRI_BARY
    return (
        lam[:, 0][None, :, None] * p0[:, None, :]
        + lam[:, 1][None, :, None] * p1[:, None, :]
        + lam[:, 2][None, :, None] * p2[:, None, :]
    )


def edge_points(pa, pb):
    """Physical Gauss points on segments; ``pa, pb`` of shape (n, 2) -> (n, 3, 2)."""
    s = EDGE_POINTS
    return (1.0 - s)[None, :, None] * pa[:, None, :] + s[None, :, None] * pb[:, None, :]
