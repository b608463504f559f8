"""Weighted-residual a posteriori error estimator and oscillations.

Per element (d = 2):

    indicator(T)^2 = |T| * ||residual||_T^2 + sqrt(|T|) * ||flux jump||_{dT cap Omega}^2

where the volume residual is the strong operator applied elementwise to
the P1 solution minus the load, and each interior edge contributes its
full jump term to both neighbouring elements (no halving). Oscillations
are the elementwise mean-free part of the volume residual.

A nonlinear flux F depends on the gradient only, so it is constant on
each element and its elementwise divergence vanishes; the residual is
``-f`` and the jump ``(F[T1] - F[T2]) . n`` comes from one
:func:`~triafem.assembly.flux_terms` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .assembly import _sample, element_gradients, flux_terms, p1_at_quadrature
from .problems import LinearProblem


class EstimatorError(ValueError):
    """Estimator input mismatch, or a negative or non-finite indicator."""


@dataclass(frozen=True)
class EstimatorReport:
    """Per-element squared indicators and oscillation terms."""

    indicators_sq: np.ndarray
    osc_sq: np.ndarray
    eta_sq_total: float
    osc_sq_total: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.indicators_sq)) and np.all(np.isfinite(self.osc_sq))):
            raise EstimatorError("non-finite squared indicator")
        if np.any(self.indicators_sq < 0.0) or np.any(self.osc_sq < 0.0):
            raise EstimatorError("negative squared indicator")
        self.indicators_sq.setflags(write=False)
        self.osc_sq.setflags(write=False)


def _linear_residual(samples, mesh, values, grad_u):
    """Residual of the strong form of a linear problem at the volume
    quadrature points, (NT, q), of the P1 function with nodal ``values``
    and element gradients ``grad_u``."""
    residual = -samples.source
    if samples.diffusion_div is not None:
        residual = residual - np.einsum("nqa,na->nq", samples.diffusion_div, grad_u)
    if samples.advection is not None:
        residual = residual + np.einsum("nqa,na->nq", samples.advection, grad_u)
    if samples.reaction is not None:
        residual = residual + samples.reaction * p1_at_quadrature(mesh, values)
    return residual


def _jump_terms(mesh, problem, vectors):
    """Squared normal-flux jump integrals accumulated per element, (NT,).

    ``vectors`` (NT, 2) are the element gradients of a linear problem,
    whose diffusion :func:`~triafem.assembly._sample` takes at the edge
    Gauss points, or the element fluxes of a nonlinear one."""
    edges, _, edge_tris, counts = mesh._edge_data
    interior = counts == 2
    per_element = np.zeros(mesh.n_elements)
    if not np.any(interior):
        return per_element
    e_idx = np.nonzero(interior)[0]
    t1 = edge_tris[e_idx, 0]
    t2 = edge_tris[e_idx, 1]
    pa = np.take(mesh.vertices, edges[e_idx, 0], axis=0)
    pb = np.take(mesh.vertices, edges[e_idx, 1], axis=0)
    tangent = pb - pa
    lengths = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / lengths[:, None]
    delta = np.take(vectors, t1, axis=0) - np.take(vectors, t2, axis=0)

    if isinstance(problem, LinearProblem):
        a_q = _sample(problem, "diffusion", quadrature.edge_points(pa, pb), 2, 2)
        # (A delta) . n per component: the products and sums of the 2-term
        # contractions, in their order (notes/decisions.md, bit-exact kernels)
        d0, d1 = delta[:, None, 0], delta[:, None, 1]
        diff0 = a_q[..., 0, 0] * d0 + a_q[..., 0, 1] * d1
        diff1 = a_q[..., 1, 0] * d0 + a_q[..., 1, 1] * d1
        jump = diff0 * normal[:, None, 0] + diff1 * normal[:, None, 1]
        integral = lengths * (quadrature.EDGE_WEIGHTS @ (jump.T**2))
    else:
        jump = delta[:, 0] * normal[:, 0] + delta[:, 1] * normal[:, 1]
        integral = lengths * jump**2

    np.add.at(per_element, t1, integral)
    np.add.at(per_element, t2, integral)
    return per_element


def estimate(mesh, sol, problem, samples):
    """Per-element error indicators and oscillations for a discrete solution.

    ``samples`` are the problem's
    :func:`~triafem.assembly.volume_samples` on ``mesh``.
    """
    if not sol.mesh.same_elements(mesh):
        raise EstimatorError("solution does not live on the given mesh")
    if isinstance(problem, LinearProblem):
        grad_u = element_gradients(mesh, sol.values)
        residual = _linear_residual(samples, mesh, sol.values, grad_u)
        vectors = grad_u
    else:
        # the flux is piecewise constant, so its divergence drops out
        _, vectors = flux_terms(mesh, problem, sol.values)
        residual = -samples.source
    w = quadrature.TRI_WEIGHTS
    areas = mesh.areas
    volume_sq = areas**2 * (residual**2 @ w)
    mean = residual @ w
    osc_sq = areas**2 * ((residual - mean[:, None]) ** 2 @ w)
    jumps = _jump_terms(mesh, problem, vectors)
    indicators_sq = volume_sq + np.sqrt(areas) * jumps
    return EstimatorReport(
        indicators_sq=indicators_sq,
        osc_sq=osc_sq,
        eta_sq_total=float(indicators_sq.sum()),
        osc_sq_total=float(osc_sq.sum()),
    )
