"""Weighted-residual a posteriori error estimator and oscillations.

Per element (d = 2):

    indicator(T)^2 = |T| * ||residual||_T^2 + sqrt(|T|) * ||flux jump||_{dT cap Omega}^2

where the volume residual is the strong operator applied elementwise to
the P1 solution minus the load, and each interior edge contributes its
full jump term to both neighbouring elements (no halving). Oscillations
are the elementwise mean-free part of the volume residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .assembly import p1_at_quadrature
from .problems import LinearProblem


class EstimatorError(ValueError):
    """Estimator input mismatch or unsupported operator form."""


@dataclass(frozen=True)
class EstimatorReport:
    """Per-element squared indicators and oscillation terms."""

    indicators_sq: np.ndarray
    osc_sq: np.ndarray
    eta_sq_total: float
    osc_sq_total: float

    def __post_init__(self):
        if np.any(self.indicators_sq < 0.0) or np.any(self.osc_sq < 0.0):
            raise EstimatorError("negative squared indicator")
        self.indicators_sq.setflags(write=False)
        self.osc_sq.setflags(write=False)


def _volume_residual_at_quadrature(mesh, problem, u_q, grad_u, y_q):
    """Residual of the strong form at the volume quadrature points, (NT, q)."""
    n, nq = u_q.shape
    flat = mesh.quadrature_points().reshape(-1, 2)
    f_q = problem.source(flat).reshape(n, nq)

    if isinstance(problem, LinearProblem):
        residual = -f_q
        if problem.diffusion_div is not None:
            div_q = problem.diffusion_div(flat).reshape(n, nq, 2)
            residual = residual - np.einsum("nqa,na->nq", div_q, grad_u)
        if problem.advection is not None:
            b_q = problem.advection(flat).reshape(n, nq, 2)
            residual = residual + np.einsum("nqa,na->nq", b_q, grad_u)
        if problem.reaction is not None:
            residual = residual + problem.reaction(flat).reshape(n, nq) * u_q
        return residual

    if not problem.grad_only:
        raise EstimatorError(
            "nonlinear estimator requires a gradient-only flux: the elementwise "
            "flux divergence of a P1 function vanishes only in that case"
        )
    # gradient-only flux is piecewise constant, so its divergence drops out
    residual = -f_q
    if problem.lower_order is not None:
        residual = residual + problem.lower_order(flat, u_q.reshape(-1), y_q).reshape(n, nq)
    return residual


def _jump_terms(mesh, problem, grad_u):
    """Squared normal-flux jump integrals accumulated per element, (NT,)."""
    edges, _, edge_tris, counts = mesh._edge_data
    interior = counts == 2
    per_element = np.zeros(mesh.n_elements)
    if not np.any(interior):
        return per_element
    e_idx = np.nonzero(interior)[0]
    t1 = edge_tris[e_idx, 0]
    t2 = edge_tris[e_idx, 1]
    pa = mesh.vertices[edges[e_idx, 0]]
    pb = mesh.vertices[edges[e_idx, 1]]
    tangent = pb - pa
    lengths = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / lengths[:, None]

    if isinstance(problem, LinearProblem):
        gpts = quadrature.edge_points(pa, pb)
        a_q = problem.diffusion(gpts.reshape(-1, 2)).reshape(e_idx.size, 3, 2, 2)
        diff = np.einsum("eqab,eb->eqa", a_q, grad_u[t1] - grad_u[t2])
        jump = np.einsum("eqa,ea->eq", diff, normal)
        integral = lengths * (quadrature.EDGE_WEIGHTS @ (jump.T**2))
    else:
        centroids = 0.5 * (pa + pb)
        flux_diff = problem.flux(centroids, grad_u[t1]) - problem.flux(centroids, grad_u[t2])
        jump = np.sum(flux_diff * normal, axis=1)
        integral = lengths * jump**2

    np.add.at(per_element, t1, integral)
    np.add.at(per_element, t2, integral)
    return per_element


def estimate(mesh, sol, problem):
    """Per-element error indicators and oscillations for a discrete solution."""
    if not sol.mesh.same_elements(mesh):
        raise EstimatorError("solution does not live on the given mesh")
    u_q, grad_u, y_q = p1_at_quadrature(mesh, sol.values)
    residual = _volume_residual_at_quadrature(mesh, problem, u_q, grad_u, y_q)
    w = quadrature.TRI_WEIGHTS
    areas = mesh.areas
    volume_sq = areas**2 * (residual**2 @ w)
    mean = residual @ w
    osc_sq = areas**2 * ((residual - mean[:, None]) ** 2 @ w)
    jumps = _jump_terms(mesh, problem, grad_u)
    indicators_sq = volume_sq + np.sqrt(areas) * jumps
    return EstimatorReport(
        indicators_sq=indicators_sq,
        osc_sq=osc_sq,
        eta_sq_total=float(indicators_sq.sum()),
        osc_sq_total=float(osc_sq.sum()),
    )


def local_sum(report, subset):
    """Sum of squared indicators over a subset of elements."""
    idx = np.asarray(subset, dtype=np.int64)
    if idx.size == 0:
        return 0.0
    if idx.min() < 0 or idx.max() >= report.indicators_sq.shape[0]:
        raise IndexError("element index out of range")
    return float(report.indicators_sq[idx].sum())
