"""P1 conforming discretisation: assembly, solvers, transfer.

The nodal basis lives on all mesh vertices; homogeneous Dirichlet
conditions are imposed by restricting systems to interior vertices and
keeping solution vectors at full length with exact zeros on the boundary.
Element data has one source: basis gradients are cached on the mesh
(:attr:`Mesh.basis_gradients`), quadrature points come from
:meth:`Mesh.quadrature_points`, a P1 function at those points from
:func:`p1_at_quadrature`, and every matrix is summed from local element
matrices by one scatter. Assembly is vectorised over elements in chunks
and strictly sequential, so repeated runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .mesh import Mesh
from .problems import LinearProblem

DIRECT_SOLVER_LIMIT = 200_000
_CHUNK = 200_000


class AssemblyError(RuntimeError):
    """A coefficient evaluated to a non-finite value during assembly."""


class SolverError(RuntimeError):
    """Linear solver missed the residual contract."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class NonlinearSolveError(RuntimeError):
    """Nonlinear iteration budget exhausted; carries the best residual."""

    def __init__(self, message, best_residual, iterations):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations


@dataclass(frozen=True)
class DiscreteSolution:
    """Nodal coefficient vector over all vertices of its mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.mesh.n_vertices,):
            raise ValueError("solution length does not match the mesh vertex count")
        if np.any(values[self.mesh.is_boundary_vertex] != 0.0):
            raise ValueError("boundary nodal values must be exactly zero")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SparseSystem:
    """Assembled bilinear form and load restricted to interior vertices."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    interior: np.ndarray
    mesh: Mesh


def element_gradients(mesh, values):
    """Piecewise constant gradient of a P1 function, (NT, 2)."""
    return np.einsum("ni,nij->nj", values[mesh.triangles], mesh.basis_gradients)


def p1_at_quadrature(mesh, values):
    """A P1 function at the volume quadrature points.

    Returns its values per element and point (NT, q), its gradient per
    element (NT, 2) and that gradient repeated per point (NT * q, 2), the
    layout the coefficient closures take.
    """
    u_q = values[mesh.triangles] @ quadrature.TRI_BARY.T
    grad_u = element_gradients(mesh, values)
    y_q = np.repeat(grad_u[:, None, :], u_q.shape[1], axis=1).reshape(-1, 2)
    return u_q, grad_u, y_q


def grad_norm_sq(mesh, values):
    """Squared H1 seminorm of a P1 function."""
    g = element_gradients(mesh, values)
    return float(np.sum(mesh.areas * np.sum(g * g, axis=1)))


def l2_norm(mesh, fn):
    """L2 norm of a coefficient function by elementwise quadrature."""
    vals = fn(mesh.quadrature_points().reshape(-1, 2)).reshape(mesh.n_elements, -1)
    return float(np.sqrt(np.sum(mesh.areas[:, None] * quadrature.TRI_WEIGHTS * vals**2)))


def h1_error_sq(mesh, values, exact_grad):
    """Squared H1-seminorm distance of a P1 function to an exact gradient."""
    pts = mesh.quadrature_points()
    eg = exact_grad(pts.reshape(-1, 2)).reshape(mesh.n_elements, -1, 2)
    diff = eg - element_gradients(mesh, values)[:, None, :]
    return float(np.sum(mesh.areas[:, None] * quadrature.TRI_WEIGHTS * np.sum(diff**2, axis=2)))


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise AssemblyError(f"quadrature failure: coefficient {name!r} returned a non-finite sample")


def _scatter(mesh, local, keep=None):
    """Sum local (NT, 3, 3) element matrices into a CSR matrix.

    Entry (i, j) of element n goes to row ``triangles[n, i]`` and column
    ``triangles[n, j]``. The COO matrix over all vertices is summed into
    CSR first and the block of the vertices ``keep`` (default: the
    interior ones) is cut out after, so every run sums in the same order.
    """
    t = mesh.triangles
    matrix = sp.coo_matrix(
        (local.reshape(-1), (np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices),
    ).tocsr()
    keep = mesh.interior_vertices if keep is None else keep
    return matrix[keep][:, keep].tocsr()


def _element_system(mesh, problem):
    """Local element matrices (NT, 3, 3) and the load over all vertices."""
    nt = mesh.n_elements
    areas = mesh.areas
    lam = quadrature.TRI_BARY
    w = quadrature.TRI_WEIGHTS
    nq = w.size
    local = np.empty((nt, 3, 3))
    rhs = np.zeros(mesh.n_vertices)
    grads_all = mesh.basis_gradients
    pts_all = mesh.quadrature_points()

    for lo in range(0, nt, _CHUNK):
        hi = min(lo + _CHUNK, nt)
        grads = grads_all[lo:hi]
        flat = pts_all[lo:hi].reshape(-1, 2)

        a_q = problem.diffusion(flat).reshape(hi - lo, nq, 2, 2)
        _check_finite("diffusion", a_q)
        a_grad = np.einsum("nqab,njb->nqja", a_q, grads)
        block = np.einsum("q,nqja,nia->nij", w, a_grad, grads)

        if problem.advection is not None:
            b_q = problem.advection(flat).reshape(hi - lo, nq, 2)
            _check_finite("advection", b_q)
            b_grad = np.einsum("nqa,nja->nqj", b_q, grads)
            block += np.einsum("q,nqj,qi->nij", w, b_grad, lam)
        if problem.reaction is not None:
            c_q = problem.reaction(flat).reshape(hi - lo, nq)
            _check_finite("reaction", c_q)
            block += np.einsum("q,nq,qi,qj->nij", w, c_q, lam, lam)
        block *= areas[lo:hi, None, None]
        local[lo:hi] = block

        f_q = problem.source(flat).reshape(hi - lo, nq)
        _check_finite("source", f_q)
        f_loc = np.einsum("q,nq,qi->ni", w, f_q, lam) * areas[lo:hi, None]
        rhs += np.bincount(mesh.triangles[lo:hi].ravel(), weights=f_loc.ravel(),
                           minlength=mesh.n_vertices)
    return local, rhs


def assemble_operator(mesh, problem):
    """Full bilinear form and load of a linear problem over all vertices.

    Entry (i, j) of the matrix is b(phi_j, phi_i); the system including
    Dirichlet restriction is produced by :func:`assemble_linear`.
    """
    local, rhs = _element_system(mesh, problem)
    return _scatter(mesh, local, keep=slice(None)), rhs


def assemble_linear(mesh, problem):
    """Interior-restricted system of the discrete weak form."""
    local, rhs = _element_system(mesh, problem)
    restricted = _scatter(mesh, local)
    interior = mesh.interior_vertices
    if interior.size and np.any(restricted.diagonal() == 0.0):
        raise AssemblyError("zero diagonal entry on an interior row")
    return SparseSystem(matrix=restricted, rhs=rhs[interior], interior=interior, mesh=mesh)


def laplace_stiffness(mesh):
    """Interior stiffness matrix of the Laplacian (exact, no quadrature)."""
    grads = mesh.basis_gradients
    return _scatter(mesh, np.einsum("nia,nja->nij", grads, grads) * mesh.areas[:, None, None])


def _expand(mesh, interior_values):
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = interior_values
    return values


def solve_linear(system, method="auto", maxiter=None):
    """Solve the assembled system to a relative residual of 1e-10.

    Uses a sparse direct factorisation up to ``DIRECT_SOLVER_LIMIT``
    unknowns and ILU-preconditioned BiCGSTAB beyond (the convection term
    rules out CG). Raises :class:`SolverError` with the achieved residual
    when the contract is missed.
    """
    mesh = system.mesh
    n = system.rhs.shape[0]
    if n == 0:
        return DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
    rhs_norm = float(np.linalg.norm(system.rhs))
    if rhs_norm == 0.0:
        return DiscreteSolution(mesh, np.zeros(mesh.n_vertices))

    if method == "direct" or (method == "auto" and n <= DIRECT_SOLVER_LIMIT):
        x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    else:
        # the convection term is non-symmetric, so BiCGSTAB with a strong
        # incomplete factorisation; the residual contract is checked below
        ilu = spla.spilu(system.matrix.tocsc(), drop_tol=1e-5, fill_factor=20.0)
        precond = spla.LinearOperator((n, n), ilu.solve)
        x, _ = spla.bicgstab(
            system.matrix,
            system.rhs,
            rtol=1e-13,
            atol=0.0,
            maxiter=maxiter if maxiter is not None else 500,
            M=precond,
        )
    achieved = float(np.linalg.norm(system.rhs - system.matrix @ x)) / rhs_norm
    if not np.isfinite(achieved) or achieved > 1e-10:
        raise SolverError(
            f"linear solve stagnated at relative residual {achieved:.3e}", achieved=achieved
        )
    return DiscreteSolution(mesh, _expand(mesh, x))


# -- nonlinear Galerkin systems ------------------------------------------------

def nonlinear_residual(mesh, problem, values):
    """Galerkin residual F_i = <L u - f, phi_i> over interior vertices."""
    u_q, _, y_q = p1_at_quadrature(mesh, values)
    n, nq = u_q.shape
    w = quadrature.TRI_WEIGHTS
    flat = mesh.quadrature_points().reshape(-1, 2)

    flux_q = problem.flux(flat, y_q).reshape(n, nq, 2)
    _check_finite("flux", flux_q)
    local = np.einsum("q,nqa,nia->ni", w, flux_q, mesh.basis_gradients)
    f_q = problem.source(flat).reshape(n, nq)
    _check_finite("source", f_q)
    lower = -f_q
    if problem.lower_order is not None:
        g_q = problem.lower_order(flat, u_q.reshape(-1), y_q).reshape(n, nq)
        _check_finite("lower_order", g_q)
        lower = lower + g_q
    local += np.einsum("q,nq,qi->ni", w, lower, quadrature.TRI_BARY)
    local *= mesh.areas[:, None]
    full = np.bincount(mesh.triangles.ravel(), weights=local.ravel(), minlength=mesh.n_vertices)
    return full[mesh.interior_vertices]


def nonlinear_jacobian(mesh, problem, values):
    """Jacobian of the Galerkin residual, restricted to interior vertices."""
    u_q, _, y_q = p1_at_quadrature(mesh, values)
    n, nq = u_q.shape
    w = quadrature.TRI_WEIGHTS
    lam = quadrature.TRI_BARY
    grads = mesh.basis_gradients
    flat = mesh.quadrature_points().reshape(-1, 2)

    jac_q = problem.flux_jacobian(flat, y_q).reshape(n, nq, 2, 2)
    _check_finite("flux_jacobian", jac_q)
    jac_grad = np.einsum("nqab,njb->nqja", jac_q, grads)
    local = np.einsum("q,nqja,nia->nij", w, jac_grad, grads)
    if problem.lower_order_du is not None:
        gu_q = problem.lower_order_du(flat, u_q.reshape(-1), y_q).reshape(n, nq)
        local += np.einsum("q,nq,qi,qj->nij", w, gu_q, lam, lam)
    if problem.lower_order_dgrad is not None:
        gy_q = problem.lower_order_dgrad(flat, u_q.reshape(-1), y_q).reshape(n, nq, 2)
        gy_grad = np.einsum("nqa,nja->nqj", gy_q, grads)
        local += np.einsum("q,nqj,qi->nij", w, gy_grad, lam)
    local *= mesh.areas[:, None, None]
    return _scatter(mesh, local)


def solve_nonlinear(
    mesh,
    problem,
    initial_guess=None,
    tol=1e-10,
    max_newton=200,
    max_fallback=10_000,
    method="newton",
    full_output=False,
):
    """Solve the nonlinear Galerkin system to ``|F(U)| <= tol * |F(0)|``.

    Damped Newton (step halving until the residual decreases) with a
    guaranteed fallback to the damped Riesz iteration
    ``U <- U - (C_mono / C_lip^2) * Riesz(F(U))``, which converges for any
    strongly monotone Lipschitz operator; ``method='zarantonello'`` runs
    the fallback only. Raises :class:`NonlinearSolveError` when the
    iteration budget is exhausted.
    """
    if method not in ("newton", "zarantonello"):
        raise ValueError(f"unknown nonlinear method {method!r}")
    interior = mesh.interior_vertices
    info = {"newton_iterations": 0, "fallback_iterations": 0, "residuals": []}
    if initial_guess is not None:
        if not initial_guess.mesh.same_elements(mesh):
            raise ValueError("initial guess lives on a different mesh")
        values = initial_guess.values.copy()
    else:
        values = np.zeros(mesh.n_vertices)
    if interior.size == 0:
        sol = DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
        return (sol, info) if full_output else sol

    ref_norm = float(np.linalg.norm(nonlinear_residual(mesh, problem, np.zeros(mesh.n_vertices))))
    if ref_norm == 0.0:
        sol = DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
        return (sol, info) if full_output else sol
    target = tol * ref_norm

    residual = nonlinear_residual(mesh, problem, values)
    res_norm = float(np.linalg.norm(residual))
    best = res_norm
    info["residuals"].append(res_norm)

    if method == "newton":
        while res_norm > target and info["newton_iterations"] < max_newton:
            jac = nonlinear_jacobian(mesh, problem, values)
            delta = spla.spsolve(jac.tocsc(), residual)
            accepted = False
            step = 1.0
            while step >= 2.0**-12:
                trial = values.copy()
                trial[interior] -= step * delta
                trial_residual = nonlinear_residual(mesh, problem, trial)
                trial_norm = float(np.linalg.norm(trial_residual))
                if np.isfinite(trial_norm) and trial_norm < res_norm:
                    values, residual, res_norm = trial, trial_residual, trial_norm
                    accepted = True
                    break
                step *= 0.5
            info["newton_iterations"] += 1
            info["residuals"].append(res_norm)
            best = min(best, res_norm)
            if not accepted:
                break

    if res_norm > target:
        step_size = problem.monotone_const / problem.lipschitz_const**2
        riesz = spla.factorized(laplace_stiffness(mesh).tocsc())
        while res_norm > target and info["fallback_iterations"] < max_fallback:
            values[interior] -= step_size * riesz(residual)
            residual = nonlinear_residual(mesh, problem, values)
            res_norm = float(np.linalg.norm(residual))
            best = min(best, res_norm)
            info["fallback_iterations"] += 1
        info["residuals"].append(res_norm)

    if res_norm > target:
        raise NonlinearSolveError(
            f"nonlinear iteration budget exhausted at relative residual {best / ref_norm:.3e}",
            best_residual=best / ref_norm,
            iterations=(info["newton_iterations"], info["fallback_iterations"]),
        )
    sol = DiscreteSolution(mesh, values)
    return (sol, info) if full_output else sol


# -- energy products and transfer ----------------------------------------------

def energy_products(mesh, problem, w_sol, v_sol, system=None):
    """Energy pairing b(w, v) and squared distance of two solutions.

    For linear problems returns ``(b(w, v), b(w - v, w - v))``; for
    nonlinear ones ``(None, <L w - L v, w - v>)``, the squared quasi-metric
    induced by the strongly monotone operator.
    """
    if not (w_sol.mesh.same_elements(mesh) and v_sol.mesh.same_elements(mesh)):
        raise ValueError("energy products need both solutions on the given mesh")
    if isinstance(problem, LinearProblem):
        if system is None:
            system = assemble_linear(mesh, problem)
        interior = system.interior
        wi = w_sol.values[interior]
        vi = v_sol.values[interior]
        b_wv = float(vi @ (system.matrix @ wi))
        d = wi - vi
        dl_sq = float(d @ (system.matrix @ d))
        return b_wv, dl_sq

    uw, grad_w, yw = p1_at_quadrature(mesh, w_sol.values)
    uv, grad_v, yv = p1_at_quadrature(mesh, v_sol.values)
    n, nq = uw.shape
    flat = mesh.quadrature_points().reshape(-1, 2)
    flux_diff = (problem.flux(flat, yw) - problem.flux(flat, yv)).reshape(n, nq, 2)
    grad_diff = (grad_w - grad_v)[:, None, :]
    integrand = np.sum(flux_diff * grad_diff, axis=2)
    if problem.lower_order is not None:
        g_diff = (
            problem.lower_order(flat, uw.reshape(-1), yw)
            - problem.lower_order(flat, uv.reshape(-1), yv)
        ).reshape(n, nq)
        integrand = integrand + g_diff * (uw - uv)
    dl_sq = float(np.sum(mesh.areas[:, None] * quadrature.TRI_WEIGHTS * integrand))
    return None, dl_sq


def _refines(coarse, fine):
    """True when every leaf of ``fine`` lies in (or is) a leaf of ``coarse``."""
    return coarse.forest is fine.forest and bool(
        fine.forest.covered(fine.node_ids, coarse.node_ids).all()
    )


def transfer(sol, finer):
    """Exact prolongation of a P1 function to a refining mesh.

    New vertices are edge midpoints; their value is the average of the
    edge endpoints, which reproduces the function pointwise.
    """
    coarse = sol.mesh
    if coarse.same_elements(finer):
        return DiscreteSolution(finer, sol.values.copy())
    if not _refines(coarse, finer):
        raise ValueError("target mesh is not a refinement of the solution's mesh")
    forest = finer.forest
    buf = np.full(forest.n_vertices, np.nan)
    buf[coarse.vertex_gids] = sol.values

    fine_gids = finer.vertex_gids
    idx = np.searchsorted(coarse.vertex_gids, fine_gids)
    idx_clip = np.minimum(idx, coarse.vertex_gids.size - 1)
    known = (idx < coarse.vertex_gids.size) & (coarse.vertex_gids[idx_clip] == fine_gids)
    pending = fine_gids[~known]
    while pending.size:
        parents = forest.vertex_parents(pending)
        ready = ~np.isnan(buf[parents[:, 0]]) & ~np.isnan(buf[parents[:, 1]])
        if not ready.any():
            raise RuntimeError("prolongation could not resolve midpoint ancestry")
        sel = pending[ready]
        buf[sel] = 0.5 * (buf[parents[ready, 0]] + buf[parents[ready, 1]])
        pending = pending[~ready]
    return DiscreteSolution(finer, buf[fine_gids])
