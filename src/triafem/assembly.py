"""P1 conforming discretisation: assembly, solvers, transfer.

The nodal basis lives on all mesh vertices; homogeneous Dirichlet
conditions are imposed by restricting systems to interior vertices and
keeping solution vectors at full length with exact zeros on the boundary.
Every system numbers its unknowns in one order, the mesh's
:attr:`Mesh.interior_vertices`, which is also the order the factor wants.
Assembly is sequential, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .mesh import Mesh, refines
from .problems import LinearProblem

# w_q lambda_qi and w_q lambda_qi lambda_qj of the volume rule: the load and
# mass tables that contract a per-point sample against the P1 basis
_W_LAM = quadrature.TRI_WEIGHTS[:, None] * quadrature.TRI_BARY
_W_LAM_LAM = (_W_LAM[:, :, None] * quadrature.TRI_BARY[:, None, :]).reshape(-1, 9)
# the damped Newton steps of a fresh factor, 1 down to 2**-12
_NEWTON_STEPS = tuple(0.5**k for k in range(13))


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
        values = np.array(self.values, dtype=float)  # a copy: the caller's array stays its own
        if values.shape != (self.mesh.n_vertices,):
            raise ValueError("solution length does not match the mesh vertex count")
        if np.any(values[self.mesh.is_boundary_vertex] != 0.0):
            raise ValueError("boundary nodal values must be exactly zero")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SparseSystem:
    """Assembled bilinear form and load restricted to interior vertices,
    row and column ``k`` at vertex ``mesh.interior_vertices[k]``."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: Mesh


@dataclass(frozen=True)
class VolumeSamples:
    """A problem's data on one mesh that does not depend on the solution.

    Every sample is per element and point, (NT, q) or (NT, q, 2).
    Advection, reaction and the diffusion divergence are sampled for
    linear problems that define them, and a linear problem also gets its
    element matrices ``local`` (NT, 3, 3) and loads ``load`` (NT, 3). A
    nonlinear problem gets its source moments ``source_moments`` (NT, 3),
    ``sum_q w_q f(x_q) lambda_qi`` without the area, which every residual
    on the mesh subtracts. Passed as an argument, never cached on the mesh
    (a run that keeps its history keeps every mesh); the adaptive loop
    carries them through refinement and drops them before the reference
    build.
    """

    source: np.ndarray
    source_moments: Optional[np.ndarray] = None
    advection: Optional[np.ndarray] = None
    reaction: Optional[np.ndarray] = None
    diffusion_div: Optional[np.ndarray] = None
    local: Optional[np.ndarray] = None
    load: Optional[np.ndarray] = None


def volume_samples(mesh, problem, carry=None):
    """The problem's :class:`VolumeSamples` on ``mesh``.

    With ``carry = (coarse, samples, record)``, ``mesh`` refines ``coarse``
    by ``record``: the kept rows are copied from ``samples`` and only the
    new elements are sampled (``notes/decisions.md``, "Element data is
    carried through refinement and keeps its bits"). Raises ``ValueError``
    when ``mesh`` does not start with the kept elements of ``coarse``, and
    :class:`AssemblyError` on a non-finite sample.
    """
    if carry is None:
        return VolumeSamples(**_element_data(mesh, problem, slice(None)))
    coarse, samples, record = carry
    if not record.joins(coarse, mesh):
        raise ValueError("mesh does not start with the kept elements of the carried mesh")
    return VolumeSamples(**{
        name: record.carry(getattr(samples, name), new)
        for name, new in _element_data(mesh, problem, record.new_elements).items()
    })


def _element_data(mesh, problem, elements):
    """The fields of :class:`VolumeSamples` on the slice ``elements`` of
    ``mesh``."""
    points = mesh.quadrature_points(elements)
    shape = points.shape[:2]
    flat = points.reshape(-1, 2)

    def sample(name, *tail):
        values = getattr(problem, name)(flat).reshape(*shape, *tail)
        _check_finite(name, values)
        return values

    fields = {"source": sample("source")}
    if isinstance(problem, LinearProblem):
        for name, tail in (("advection", (2,)), ("reaction", ()), ("diffusion_div", (2,))):
            if getattr(problem, name) is not None:
                fields[name] = sample(name, *tail)
        fields["local"], fields["load"] = _element_system(
            sample("diffusion", 2, 2), fields,
            mesh.basis_gradients[elements], mesh.areas[elements],
        )
    else:
        fields["source_moments"] = np.einsum(
            "q,nq,qi->ni", quadrature.TRI_WEIGHTS, fields["source"], quadrature.TRI_BARY)
    return fields


def element_gradients(mesh, values):
    """Piecewise constant gradient of a P1 function, (NT, 2)."""
    return np.einsum("ni,nij->nj", values[mesh.triangles], mesh.basis_gradients)


def p1_at_quadrature(mesh, values):
    """Values (NT, q) of a P1 function at the volume quadrature points."""
    return values[mesh.triangles] @ quadrature.TRI_BARY.T


def grad_norm_sq(mesh, values):
    """Squared H1 seminorm of a P1 function."""
    g = element_gradients(mesh, values)
    return float(np.sum(mesh.areas * (g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1])))


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise AssemblyError(f"quadrature failure: coefficient {name!r} returned a non-finite sample")


def _scatter(mesh, local):
    """Sum local (NT, 3, 3) element matrices into the interior CSR matrix.

    Entry (i, j) of element n goes to row ``triangles[n, i]`` and column
    ``triangles[n, j]``. The COO matrix over all vertices is summed into
    CSR first and the interior block is cut out after, in the order of
    :attr:`Mesh.interior_vertices`, so every run sums in the same order.
    """
    t = mesh.triangles
    matrix = sp.coo_matrix(
        (local.reshape(-1), (np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices),
    ).tocsr()
    keep = mesh.interior_vertices
    return matrix[keep][:, keep].tocsr()


def _stiffness(grads, a_bar):
    """G A G^T per element: (NT, 3, 2) gradients, (NT, 2, 2) matrices."""
    return grads @ a_bar @ grads.transpose(0, 2, 1)


def _contract(w, values):
    """Quadrature sum over the point axis 1 of a per-point sample."""
    return np.einsum("q,nq...->n...", w, values)


def _element_system(a_q, samples, grads, areas):
    """Element matrices (n, 3, 3) and loads (n, 3) of a linear problem on n
    elements, from its diffusion ``a_q`` (n, q, 2, 2) and the other
    ``samples`` there, with basis gradients ``grads`` and ``areas``."""
    local = _stiffness(grads, _contract(quadrature.TRI_WEIGHTS, a_q))
    if "advection" in samples:
        b_bar = np.einsum("qi,nqa->nia", _W_LAM, samples["advection"])
        local += b_bar @ grads.transpose(0, 2, 1)
    if "reaction" in samples:
        local += (samples["reaction"] @ _W_LAM_LAM).reshape(-1, 3, 3)
    local *= areas[:, None, None]
    return local, (samples["source"] @ _W_LAM) * areas[:, None]


def assemble_linear(mesh, problem, samples=None):
    """Interior-restricted system of the discrete weak form.

    ``samples`` are the problem's :func:`volume_samples` on ``mesh``,
    taken here when not given; they hold the element matrices and loads,
    so this only sums them.
    """
    if samples is None:
        samples = volume_samples(mesh, problem)
    rhs = np.bincount(
        mesh.triangles.ravel(), weights=samples.load.ravel(), minlength=mesh.n_vertices)
    restricted = _scatter(mesh, samples.local)
    interior = mesh.interior_vertices
    if interior.size and np.any(restricted.diagonal() == 0.0):
        raise AssemblyError("zero diagonal entry on an interior row")
    return SparseSystem(matrix=restricted, rhs=rhs[interior], mesh=mesh)


def laplace_stiffness(mesh):
    """Interior stiffness matrix of the Laplacian (exact, no quadrature)."""
    grads = mesh.basis_gradients
    return _scatter(mesh, np.einsum("nia,nja->nij", grads, grads) * mesh.areas[:, None, None])


def _expand(mesh, interior_values):
    values = np.zeros(mesh.n_vertices)
    values[mesh.interior_vertices] = interior_values
    return values


def _symmetric_factor(matrix):
    """SuperLU factor of ``matrix``, a function ``solve(rhs)``: a minimum
    degree order of ``A + A^T`` in symmetric mode, preferring the diagonal
    pivot, taken on the unknowns in the order :attr:`Mesh.interior_vertices`
    gives them (``notes/decisions.md``). The one sparse LU of the package:
    linear systems, Newton's Jacobians and the Riesz map are factored here.
    Raises ``RuntimeError`` when the matrix is exactly singular."""
    return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True}).solve


def solve_linear(system):
    """Solve the assembled system by sparse LU (:func:`_symmetric_factor`)
    to a relative residual of 1e-10. Raises :class:`SolverError` with the
    achieved residual when the contract is missed, and when SuperLU finds
    the matrix exactly singular."""
    mesh = system.mesh
    if not np.any(system.rhs):
        return DiscreteSolution(mesh, np.zeros(mesh.n_vertices))
    rhs_norm = float(np.linalg.norm(system.rhs))
    try:
        solve = _symmetric_factor(system.matrix)
    except RuntimeError as exc:
        # SuperLU found the matrix exactly singular
        raise SolverError(
            f"linear solve missed the residual contract: {exc}", achieved=float("nan"),
        ) from exc
    x = solve(system.rhs)
    achieved = float(np.linalg.norm(system.rhs - system.matrix @ x)) / rhs_norm
    if not np.isfinite(achieved) or achieved > 1e-10:
        raise SolverError(
            f"linear solve missed the residual contract: relative residual {achieved:.3e}",
            achieved=achieved,
        )
    return DiscreteSolution(mesh, _expand(mesh, x))


# -- nonlinear Galerkin systems ------------------------------------------------

def _flux_closure(problem, name, grad_u):
    """``problem.flux`` (NT, 2) or ``problem.flux_jacobian`` (NT, 2, 2) of
    a P1 function with element gradients ``grad_u``, one call per element."""
    values = getattr(problem, name)(grad_u)
    _check_finite(name, values)
    return values


def nonlinear_residual(mesh, problem, values, samples=None):
    """Galerkin residual F_i = <L u - f, phi_i> over interior vertices.

    ``samples`` are the problem's :func:`volume_samples` on ``mesh``,
    taken here when not given. The flux part is summed point by point in
    the order of ``einsum("q,nqa,nia->ni")``, not contracted first
    (``notes/decisions.md``, "The nonlinear residual keeps its
    point-by-point quadrature sum" and "Gradient-only fluxes"). Raises
    :class:`AssemblyError` on a non-finite flux.
    """
    if samples is None:
        samples = volume_samples(mesh, problem)
    w = quadrature.TRI_WEIGHTS
    _, flux = flux_terms(mesh, problem, values)
    # component-major rows (2, 3, NT), so that every term is a product of
    # contiguous rows
    grads = mesh.basis_gradients.transpose(2, 1, 0).copy()
    local = np.zeros((3, mesh.n_elements))
    for w_q in w:
        for a in range(2):
            local += (w_q * flux[:, a]) * grads[a]
    local = local.T
    local -= samples.source_moments
    local *= mesh.areas[:, None]
    full = np.bincount(mesh.triangles.ravel(), weights=local.ravel(), minlength=mesh.n_vertices)
    return full[mesh.interior_vertices]


def nonlinear_jacobian(mesh, problem, values):
    """Jacobian of the Galerkin residual, restricted to interior vertices.

    The flux Jacobian is contracted before the local product, as
    ``w_0 DF + w_1 DF + ...`` with the element flux Jacobian ``DF``, the
    order of einsum's quadrature sum.
    """
    jac = _flux_closure(problem, "flux_jacobian", element_gradients(mesh, values))
    jac_bar = np.zeros((mesh.n_elements, 2, 2))
    for w_q in quadrature.TRI_WEIGHTS:
        jac_bar += w_q * jac
    local = _stiffness(mesh.basis_gradients, jac_bar)
    local *= mesh.areas[:, None, None]
    return _scatter(mesh, local)


def solve_nonlinear(
    mesh,
    problem,
    initial_guess=None,
    max_newton=200,
    max_fallback=10_000,
    full_output=False,
    samples=None,
    frozen_factor=False,
):
    """Solve the nonlinear Galerkin system to ``|F(U)| <= 1e-10 |F(0)|``.

    Damped Newton (steps 1 down to ``2**-12``), each Jacobian factored by
    :func:`_symmetric_factor`; the damped Riesz iteration
    ``U <- U - (C_mono / C_lip^2) * Riesz(F(U))`` takes over when no step
    decreases the residual, a Jacobian is exactly singular or
    ``max_newton`` steps are spent. Every residual reads
    ``samples``, the problem's :func:`volume_samples` on ``mesh``, taken
    here when not given. ``frozen_factor=True`` keeps a factor for the
    later steps while each halves the residual (simplified Newton, which
    the reference solve runs: ``notes/decisions.md``, "The reference solve
    factors once"). ``full_output=True`` also returns the iteration counts
    and residuals. Raises ``ValueError`` for a guess on another mesh and
    :class:`NonlinearSolveError` when the iteration budget is exhausted.
    """
    if initial_guess is not None and not initial_guess.mesh.same_elements(mesh):
        raise ValueError("initial guess lives on a different mesh")
    if samples is None:
        samples = volume_samples(mesh, problem)
    interior = mesh.interior_vertices
    info = {"newton_iterations": 0, "fallback_iterations": 0, "residuals": []}
    values = np.zeros(mesh.n_vertices)
    ref_norm = float(np.linalg.norm(nonlinear_residual(mesh, problem, values, samples)))
    target = 1e-10 * ref_norm
    res_norm = best = 0.0
    # otherwise zero solves F(0) = 0, also when nothing is unknown
    if ref_norm != 0.0:
        if initial_guess is not None:
            values = initial_guess.values.copy()
        residual = nonlinear_residual(mesh, problem, values, samples)
        res_norm = best = float(np.linalg.norm(residual))
        info["residuals"].append(res_norm)

    solve = None
    while res_norm > target and info["newton_iterations"] < max_newton:
        fresh = solve is None
        if fresh:
            try:
                solve = _symmetric_factor(nonlinear_jacobian(mesh, problem, values))
            except RuntimeError:
                # SuperLU found the Jacobian exactly singular
                break
        delta = solve(residual)
        if not frozen_factor:
            solve = None  # full Newton frees the factor before the line search
        accepted = False
        for step in _NEWTON_STEPS if fresh else _NEWTON_STEPS[:1]:
            trial = values.copy()
            trial[interior] -= step * delta
            trial_residual = nonlinear_residual(mesh, problem, trial, samples)
            trial_norm = float(np.linalg.norm(trial_residual))
            if (np.isfinite(trial_norm) and trial_norm < res_norm if fresh
                    else trial_norm <= 0.5 * res_norm):
                values, residual, res_norm = trial, trial_residual, trial_norm
                accepted = True
                break
        if not (accepted or fresh):
            solve = None  # a fresh Jacobian at the same iterate
            continue
        info["newton_iterations"] += 1
        info["residuals"].append(res_norm)
        best = min(best, res_norm)
        if not accepted:
            break

    if res_norm > target:
        step_size = problem.monotone_const / problem.lipschitz_const**2
        riesz = _symmetric_factor(laplace_stiffness(mesh))
        while res_norm > target and info["fallback_iterations"] < max_fallback:
            values[interior] -= step_size * riesz(residual)
            residual = nonlinear_residual(mesh, problem, values, samples)
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

def flux_terms(mesh, problem, values):
    """A P1 function's element gradients (NT, 2) and fluxes (NT, 2)."""
    grad_u = element_gradients(mesh, values)
    return grad_u, _flux_closure(problem, "flux", grad_u)


def energy_products(mesh, problem, w_sol, v_sols, system=None, parents=None):
    """Squared energy distances of ``w_sol`` to each of ``v_sols``, a list.

    ``w_sol`` lives on ``mesh``, and so do the ``v_sols`` unless
    ``parents`` is given: then ``v_sols[k]`` lives on a mesh that ``mesh``
    refines, and ``parents[k]`` holds, per element of ``mesh``, the element
    of that mesh that holds it (:func:`~triafem.mesh.element_maps`).
    For linear problems ``b(w - v, w - v)``, from the assembled ``system``
    when given, with coarser solutions prolonged by :func:`transfer_many`;
    for nonlinear ones ``<L w - L v, w - v>``, with a coarser solution's
    :func:`flux_terms` taken on its own mesh and gathered through its map
    (``notes/decisions.md``, "Each iterate is read on its own mesh").
    Raises ``ValueError`` when a solution is not on ``mesh`` or a map
    does not fit.
    """
    if parents is not None:
        if len(parents) != len(v_sols) or any(
                np.shape(p) != (mesh.n_elements,) or p.min(initial=0) < 0
                or p.max(initial=-1) >= v.mesh.n_elements for p, v in zip(parents, v_sols)):
            raise ValueError("energy products need one element map per solution, over the mesh")
        if isinstance(problem, LinearProblem):
            v_sols, parents = transfer_many(v_sols, mesh), None
    on_mesh = [w_sol, *(v_sols if parents is None else [])]
    if not all(sol.mesh.same_elements(mesh) for sol in on_mesh):
        raise ValueError("energy products need every solution on the given mesh")
    if isinstance(problem, LinearProblem):
        if system is None:
            system = assemble_linear(mesh, problem)
        interior = system.mesh.interior_vertices
        w = w_sol.values[interior]
        return [float(d @ (system.matrix @ d)) for d in (w - v.values[interior] for v in v_sols)]

    grad_w, flux_w = flux_terms(mesh, problem, w_sol.values)
    weights = mesh.areas[:, None] * quadrature.TRI_WEIGHTS
    products = []
    for v_sol, parent in zip(v_sols, parents or [None] * len(v_sols)):
        if parent is None:
            grad_v, flux_v = flux_terms(mesh, problem, v_sol.values)
        else:
            grad_v, flux_v = flux_terms(v_sol.mesh, problem, v_sol.values)
            grad_v, flux_v = np.take(grad_v, parent, axis=0), np.take(flux_v, parent, axis=0)
        # (NT, 1): formed once per element, then broadcast to the points by
        # the sum below, which keeps its operands; the two components are
        # added as written, the bits of np.sum over them at a third of its cost
        terms = (flux_w - flux_v) * (grad_w - grad_v)
        integrand = (terms[:, 0] + terms[:, 1])[:, None]
        products.append(float(np.sum(weights * integrand)))
    return products


def transfer(sol, finer):
    """Exact prolongation of a P1 function to a refining mesh: the
    one-solution case of :func:`transfer_many`."""
    return transfer_many([sol], finer)[0]


def transfer_many(solutions, finer):
    """Exact prolongation of P1 functions, each on a mesh that ``finer``
    refines, to ``finer``; one :class:`DiscreteSolution` per solution.

    A new vertex, an edge midpoint, gets the average of the edge's
    endpoints, one midpoint generation per pass over a buffer shared by
    all solutions, so every value has the bits of a prolongation of its
    solution alone (``notes/decisions.md``, "Each iterate is read on its
    own mesh"). Raises ``ValueError`` when ``finer`` does not refine a
    solution's mesh or a solution has a non-finite value.
    """
    if not solutions:
        return []
    if refines(finer, [sol.mesh for sol in solutions]) is None:
        raise ValueError("target mesh is not a refinement of the solution's mesh")
    if not all(np.isfinite(sol.values).all() for sol in solutions):
        raise ValueError("cannot prolong a solution with non-finite values")
    forest = finer.forest
    buf = np.full((forest.n_vertices, len(solutions)), np.nan)
    for k, sol in enumerate(solutions):
        buf[sol.mesh.vertex_gids, k] = sol.values

    fine_gids = finer.vertex_gids
    done = ~np.isnan(buf).any(axis=1)
    pending = fine_gids[~done[fine_gids]]
    while pending.size:
        parents = forest.vparent[pending]
        ready = done[parents[:, 0]] & done[parents[:, 1]]
        if not ready.any():
            raise RuntimeError("prolongation could not resolve midpoint ancestry")
        sel, parents = pending[ready], parents[ready]
        known = buf[sel]
        buf[sel] = np.where(
            np.isnan(known), 0.5 * (buf[parents[:, 0]] + buf[parents[:, 1]]), known)
        done[sel] = True
        pending = pending[~ready]
    return [DiscreteSolution(finer, row) for row in buf[fine_gids].T]
