"""Per-point and per-vertex oracles for P1 functions and element matrices
(test scale only)."""

import dataclasses

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from triafem import quadrature
from triafem.assembly import (
    _symmetric_factor,
    element_gradients,
    laplace_stiffness,
    nonlinear_jacobian,
    nonlinear_residual,
    volume_samples,
)
from triafem.mesh import unit_square_mesh
from triafem.problems import LinearProblem, builtin_problem


def restrict_functional(fine_mesh, coarse_mesh, fine_vector):
    """Adjoint of the prolongation: maps a fine nodal functional to coarse.

    Given r with r_i = <R, phi_i^fine>, returns the vector of
    <R, phi_j^coarse> for the coarse nodal basis prolongated to the fine
    mesh.
    """
    forest = fine_mesh.forest
    buf = np.zeros(forest.n_vertices)
    buf[fine_mesh.vertex_gids] = fine_vector
    coarse_gids = coarse_mesh.vertex_gids
    coarse_set = set(int(g) for g in coarse_gids)
    parents = forest.vparent
    for g in fine_mesh.vertex_gids[::-1]:
        g = int(g)
        if g in coarse_set or buf[g] == 0.0:
            continue
        pa, pb = parents[g]
        buf[pa] += 0.5 * buf[g]
        buf[pb] += 0.5 * buf[g]
        buf[g] = 0.0
    return buf[coarse_gids]


def evaluate(sol, points):
    """Point evaluation of a P1 function (test-scale: linear scan per point)."""
    mesh = sol.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = mesh.vertices
    t = mesh.triangles
    p0, p1, p2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    s2 = 2.0 * mesh.areas
    out = np.empty(pts.shape[0])
    for k, x in enumerate(pts):
        d = x - p0
        lam2 = ((p1[:, 0] - p0[:, 0]) * d[:, 1] - (p1[:, 1] - p0[:, 1]) * d[:, 0]) / s2
        lam1 = (d[:, 0] * (p2[:, 1] - p0[:, 1]) - d[:, 1] * (p2[:, 0] - p0[:, 0])) / s2
        lam0 = 1.0 - lam1 - lam2
        inside = (lam0 >= -1e-12) & (lam1 >= -1e-12) & (lam2 >= -1e-12)
        hits = np.nonzero(inside)[0]
        if hits.size == 0:
            raise ValueError(f"point {x} lies outside the mesh")
        i = hits[0]
        vals = sol.values[t[i]]
        out[k] = lam0[i] * vals[0] + lam1[i] * vals[1] + lam2[i] * vals[2]
    return out if np.asarray(points).ndim > 1 else float(out[0])


def assemble_operator(mesh, problem):
    """Full bilinear form and load of a linear problem over all vertices;
    entry (i, j) of the matrix is b(phi_j, phi_i)."""
    samples = volume_samples(mesh, problem)
    t = mesh.triangles
    rows, cols = np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel()
    matrix = sp.coo_matrix((samples.local.reshape(-1), (rows, cols)),
                           shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    rhs = np.bincount(t.ravel(), weights=samples.load.ravel(), minlength=mesh.n_vertices)
    return matrix, rhs


def scatter_oracle(mesh, local):
    """Interior matrix of local (NT, 3, 3) element matrices by scipy's
    chain alone: the COO matrix over all vertices to CSR, the interior rows
    and then columns cut out in the order of ``mesh.interior_vertices``,
    then CSC."""
    t = mesh.triangles
    rows, cols = np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel()
    full = sp.coo_matrix((local.reshape(-1), (rows, cols)),
                         shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    keep = mesh.interior_vertices
    return full[keep][:, keep].tocsc()


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


def element_system_per_point(mesh, problem):
    """Local matrices (NT, 3, 3) and load of a linear problem, every
    coefficient sampled here and summed point by point (no contraction)."""
    nt = mesh.n_elements
    lam = quadrature.TRI_BARY
    w = quadrature.TRI_WEIGHTS
    nq = w.size
    grads = mesh.basis_gradients
    flat = mesh.quadrature_points().reshape(-1, 2)

    a_q = problem.diffusion(flat).reshape(nt, nq, 2, 2)
    a_grad = np.einsum("nqab,njb->nqja", a_q, grads)
    local = np.einsum("q,nqja,nia->nij", w, a_grad, grads)
    if problem.advection is not None:
        b_q = problem.advection(flat).reshape(nt, nq, 2)
        b_grad = np.einsum("nqa,nja->nqj", b_q, grads)
        local += np.einsum("q,nqj,qi->nij", w, b_grad, lam)
    if problem.reaction is not None:
        c_q = problem.reaction(flat).reshape(nt, nq)
        local += np.einsum("q,nq,qi,qj->nij", w, c_q, lam, lam)
    local *= mesh.areas[:, None, None]

    f_q = problem.source(flat).reshape(nt, nq)
    f_loc = np.einsum("q,nq,qi->ni", w, f_q, lam) * mesh.areas[:, None]
    rhs = np.bincount(mesh.triangles.ravel(), weights=f_loc.ravel(), minlength=mesh.n_vertices)
    return local, rhs


def gradients_per_point(mesh, values):
    """A P1 function's element gradient (NT, 2) and that gradient repeated
    to every quadrature point (NT * q, 2)."""
    grad_u = element_gradients(mesh, values)
    return grad_u, np.repeat(grad_u, quadrature.TRI_WEIGHTS.size, axis=0)


def residual_per_point(mesh, problem, values):
    """Interior Galerkin residual of a nonlinear problem with the flux
    called at every quadrature point, summed point by point."""
    samples = volume_samples(mesh, problem)
    _, y_q = gradients_per_point(mesh, values)
    w = quadrature.TRI_WEIGHTS

    flux_q = problem.flux(y_q).reshape(mesh.n_elements, w.size, 2)
    local = np.einsum("q,nqa,nia->ni", w, flux_q, mesh.basis_gradients)
    local += np.einsum("q,nq,qi->ni", w, -samples.source, quadrature.TRI_BARY)
    local *= mesh.areas[:, None]
    full = np.bincount(mesh.triangles.ravel(), weights=local.ravel(), minlength=mesh.n_vertices)
    return full[mesh.interior_vertices]


def contracted_jacobian_per_point(mesh, problem, values):
    """Local Newton Jacobians (NT, 3, 3) with the flux Jacobian called at
    every quadrature point and the quadrature contracted before the local
    product, in the order of ``nonlinear_jacobian``."""
    _, y_q = gradients_per_point(mesh, values)
    w = quadrature.TRI_WEIGHTS
    grads = mesh.basis_gradients

    jac_q = problem.flux_jacobian(y_q).reshape(mesh.n_elements, w.size, 2, 2)
    local = grads @ np.einsum("q,nq...->n...", w, jac_q) @ grads.transpose(0, 2, 1)
    return local * mesh.areas[:, None, None]


def energy_per_point(mesh, problem, w_values, v_values):
    """<L w - L v, w - v> of a nonlinear problem with the flux called at
    every quadrature point; the point integrands of each element must be
    equal, and their area-weighted sum over elements is the energy (the
    weights sum to one)."""
    n, nq = mesh.n_elements, quadrature.TRI_WEIGHTS.size
    grad_w, y_w = gradients_per_point(mesh, w_values)
    flux_w = problem.flux(y_w)
    grad_v, y_v = gradients_per_point(mesh, v_values)
    flux_v = problem.flux(y_v)
    flux_diff = (flux_w - flux_v).reshape(n, nq, 2)
    grad_diff = (grad_w - grad_v)[:, None, :]
    integrand = np.sum(flux_diff * grad_diff, axis=2)
    assert np.array_equal(integrand, np.repeat(integrand[:, :1], nq, axis=1))
    return float(np.sum(mesh.areas * integrand[:, 0]))


def exact_error_per_point(mesh, problem, values):
    """Squared energy error of a P1 function against the problem's declared
    solution, element by element and point by point, every closure called
    at one point: ``b(e, e)`` with ``e = u - U`` for a linear problem,
    ``(F(grad u) - F(grad U)) . grad(u - U)`` for a nonlinear one."""
    w, lam = quadrature.TRI_WEIGHTS, quadrature.TRI_BARY
    points = mesh.quadrature_points()
    grads = element_gradients(mesh, values)
    total = 0.0
    for n in range(mesh.n_elements):
        element = 0.0
        for q in range(w.size):
            x = points[n, q][None]
            grad_u = problem.exact_grad(x)[0]
            grad_e = grad_u - grads[n]
            if isinstance(problem, LinearProblem):
                e = problem.exact_u(x)[0] - lam[q] @ values[mesh.triangles[n]]
                term = grad_e @ problem.diffusion(x)[0] @ grad_e
                if problem.advection is not None:
                    term += (problem.advection(x)[0] @ grad_e) * e
                if problem.reaction is not None:
                    term += problem.reaction(x)[0] * e * e
            else:
                term = (problem.flux(grad_u[None])[0] - problem.flux(grads[n][None])[0]) @ grad_e
            element += w[q] * term
        total += mesh.areas[n] * element
    return total


def nonlinear_estimate_at_centroids(mesh, problem, values, samples):
    """Squared indicators and oscillations of a nonlinear problem with the
    flux of both neighbours evaluated on every interior edge."""
    grad_u = element_gradients(mesh, values)
    residual = -samples.source
    w = quadrature.TRI_WEIGHTS
    areas = mesh.areas
    volume_sq = areas**2 * (residual**2 @ w)
    mean = residual @ w
    osc_sq = areas**2 * ((residual - mean[:, None]) ** 2 @ w)

    edges, _, edge_tris, counts = mesh._edge_data
    e_idx = np.nonzero(counts == 2)[0]
    t1, t2 = edge_tris[e_idx, 0], edge_tris[e_idx, 1]
    pa, pb = mesh.vertices[edges[e_idx, 0]], mesh.vertices[edges[e_idx, 1]]
    tangent = pb - pa
    lengths = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / lengths[:, None]
    flux_diff = problem.flux(grad_u[t1]) - problem.flux(grad_u[t2])
    integral = lengths * np.sum(flux_diff * normal, axis=1) ** 2
    jumps = np.zeros(mesh.n_elements)
    np.add.at(jumps, t1, integral)
    np.add.at(jumps, t2, integral)
    return volume_sq + np.sqrt(areas) * jumps, osc_sq


def jacobian_per_point(mesh, problem, values):
    """Local Newton Jacobians (NT, 3, 3) of a nonlinear problem, summed
    point by point (no contraction)."""
    _, y_q = gradients_per_point(mesh, values)
    w = quadrature.TRI_WEIGHTS
    grads = mesh.basis_gradients

    jac_q = problem.flux_jacobian(y_q).reshape(mesh.n_elements, w.size, 2, 2)
    jac_grad = np.einsum("nqab,njb->nqja", jac_q, grads)
    local = np.einsum("q,nqja,nia->nij", w, jac_grad, grads)
    return local * mesh.areas[:, None, None]


def without_solution(problem):
    """``problem`` with its declared solution dropped: a run of it with
    ``compute_reference`` measures its errors against the reference solve."""
    return dataclasses.replace(problem, exact_u=None, exact_grad=None)


def varying_linear_problem():
    """A linear problem whose every coefficient depends on x: SPD A(x) with
    its row divergence, b(x), c(x) and f(x), on the unit-square cross mesh."""

    def diffusion(x):
        a = np.empty((x.shape[0], 2, 2))
        a[:, 0, 0] = 2.0 + x[:, 0] ** 2
        a[:, 1, 1] = 1.5 + np.sin(x[:, 1])
        a[:, 0, 1] = a[:, 1, 0] = 0.3 * x[:, 0] * x[:, 1]
        return a

    def diffusion_div(x):
        return np.stack([2.3 * x[:, 0], 0.3 * x[:, 1] + np.cos(x[:, 1])], axis=1)

    return LinearProblem(
        name="varying",
        diffusion=diffusion,
        diffusion_div=diffusion_div,
        advection=lambda x: np.stack([np.sin(3.0 * x[:, 1]), 1.0 + x[:, 0]], axis=1),
        reaction=lambda x: 1.0 + x[:, 0] * x[:, 1],
        source=lambda x: np.exp(x[:, 0]) * (1.0 + x[:, 1]),
        make_initial_mesh=lambda: unit_square_mesh(cross=True),
        ellipticity_const=0.5,
    )


def skew_flux_problem():
    """The magnetostatics flux plus ``0.75 J y / (1 + |y|^2)``,
    ``J = [[0, 1], [-1, 0]]``: a gradient-only flux whose Jacobian is not
    symmetric and varies with ``y``, so that the assembled Newton matrix is
    not symmetric either (a constant skew term ``K y`` would add
    ``(K grad u, grad v) = 0`` for ``u, v`` vanishing on the boundary).
    With ``F(y) = y + (I + 0.75 J) y / (1 + |y|^2)`` the strong-monotonicity
    constant is ``1 - (c - 1)^2 / (4 c) = 119/144`` with
    ``c = 1 + |(1, 0.75)| = 9/4`` (at ``|y|^2 = 2.6``), and the Lipschitz
    constant is ``|DF(0)| = |(2, 0.75)|``. The source is that of
    magnetostatics; no exact solution is known."""
    problem = builtin_problem("magnetostatics_nl")
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def decay(y):
        return 1.0 / (1.0 + (y[..., 0] * y[..., 0] + y[..., 1] * y[..., 1]))

    def rotated(y):
        return np.stack([y[..., 1], -y[..., 0]], axis=-1)

    def flux(y):
        return problem.flux(y) + (0.75 * decay(y))[..., None] * rotated(y)

    def flux_jacobian(y):
        s = decay(y)[..., None, None]
        outer = rotated(y)[..., :, None] * y[..., None, :]
        return problem.flux_jacobian(y) + 0.75 * (s * rotation - 2.0 * s * s * outer)

    return dataclasses.replace(
        problem, name="magnetostatics_skew", flux=flux, flux_jacobian=flux_jacobian,
        monotone_const=119.0 / 144.0, lipschitz_const=float(np.hypot(2.0, 0.75)),
        exact_u=None, exact_grad=None)


# -- the built-in source closures as first written, with the gradients
# stacked and every dot product summed by np.sum ----------------------------

def _corner_angle(x):
    phi = np.arctan2(x[..., 1], x[..., 0])
    return np.where(phi < 0.0, phi + 2.0 * np.pi, phi)


def _singular_part(x):
    r = np.hypot(x[..., 0], x[..., 1])
    phi = _corner_angle(x)
    safe_r = np.where(r > 0.0, r, 1.0)
    sin_t, cos_t = np.sin(2.0 * phi / 3.0), np.cos(2.0 * phi / 3.0)
    s = r ** (2.0 / 3.0) * sin_t
    radial = (2.0 / 3.0) * safe_r ** (-1.0 / 3.0) * sin_t
    angular = (2.0 / 3.0) * safe_r ** (-1.0 / 3.0) * cos_t
    e_r = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    e_phi = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
    grad = radial[..., None] * e_r + angular[..., None] * e_phi
    grad = np.where((r > 0.0)[..., None], grad, 0.0)
    return s, grad


def _boundary_bump(x):
    xx, yy = x[..., 0], x[..., 1]
    p = (1.0 - xx**2) * (1.0 - yy**2)
    grad = np.stack([-2.0 * xx * (1.0 - yy**2), -2.0 * yy * (1.0 - xx**2)], axis=-1)
    lap = -2.0 * (1.0 - yy**2) - 2.0 * (1.0 - xx**2)
    return p, grad, lap


def lshape_exact_grad_stacked(x):
    s, grad_s = _singular_part(x)
    p, grad_p, _ = _boundary_bump(x)
    return p[..., None] * grad_s + s[..., None] * grad_p


def lshape_source_stacked(x):
    s, grad_s = _singular_part(x)
    _, grad_p, lap_p = _boundary_bump(x)
    return -(2.0 * np.sum(grad_s * grad_p, axis=-1) + s * lap_p)


def magnetostatics_source_stacked(x):
    sx, cx = np.sin(np.pi * x[..., 0]), np.cos(np.pi * x[..., 0])
    sy, cy = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
    grad = np.pi * np.stack([cx * sy, sx * cy], axis=-1)
    t = np.sum(grad * grad, axis=-1)
    lap = -2.0 * np.pi**2 * sx * sy
    hxx = -np.pi**2 * sx * sy
    hxy = np.pi**2 * cx * cy
    h_grad = np.stack(
        [hxx * grad[..., 0] + hxy * grad[..., 1],
         hxy * grad[..., 0] + hxx * grad[..., 1]],
        axis=-1,
    )
    phi = 1.0 + 1.0 / (1.0 + t)
    dphi = -1.0 / (1.0 + t) ** 2
    return -(2.0 * dphi * np.sum(h_grad * grad, axis=-1) + phi * lap)


def triangle_points_broadcast(p0, p1, p2):
    """The volume quadrature points as first written, broadcast per element."""
    lam = quadrature.TRI_BARY
    return (lam[:, 0][None, :, None] * p0[:, None, :] + lam[:, 1][None, :, None] * p1[:, None, :]
            + lam[:, 2][None, :, None] * p2[:, None, :])


def edge_points_broadcast(pa, pb):
    """The edge Gauss points as first written, broadcast per edge."""
    s = quadrature.EDGE_POINTS
    return (1.0 - s)[None, :, None] * pa[:, None, :] + s[None, :, None] * pb[:, None, :]


def linear_jump_terms_einsum(mesh, problem, vectors):
    """The linear jump integrals per element as first written: corners
    gathered by row fancy index, Gauss points broadcast per edge, both
    2-vector contractions by ``einsum``."""
    edges, _, edge_tris, counts = mesh._edge_data
    e_idx = np.nonzero(counts == 2)[0]
    t1, t2 = edge_tris[e_idx, 0], edge_tris[e_idx, 1]
    pa = mesh.vertices[edges[e_idx, 0]]
    pb = mesh.vertices[edges[e_idx, 1]]
    tangent = pb - pa
    lengths = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / lengths[:, None]
    delta = vectors[t1] - vectors[t2]
    gpts = edge_points_broadcast(pa, pb)
    a_q = problem.diffusion(gpts.reshape(-1, 2)).reshape(e_idx.size, 3, 2, 2)
    diff = np.einsum("eqab,eb->eqa", a_q, delta)
    jump = np.einsum("eqa,ea->eq", diff, normal)
    integral = lengths * (quadrature.EDGE_WEIGHTS @ (jump.T**2))
    per_element = np.zeros(mesh.n_elements)
    np.add.at(per_element, t1, integral)
    np.add.at(per_element, t2, integral)
    return per_element


def nonlinear_jump_terms_sum(mesh, vectors):
    """The nonlinear jump integrals per element of the element fluxes
    ``vectors``, the normal component summed by ``np.sum`` over its
    length-2 axis."""
    edges, _, edge_tris, counts = mesh._edge_data
    e_idx = np.nonzero(counts == 2)[0]
    t1, t2 = edge_tris[e_idx, 0], edge_tris[e_idx, 1]
    tangent = mesh.vertices[edges[e_idx, 1]] - mesh.vertices[edges[e_idx, 0]]
    lengths = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / lengths[:, None]
    integral = lengths * np.sum((vectors[t1] - vectors[t2]) * normal, axis=1) ** 2
    per_element = np.zeros(mesh.n_elements)
    np.add.at(per_element, t1, integral)
    np.add.at(per_element, t2, integral)
    return per_element


def wide_magnitudes(rng, shape):
    """Random signed floats of magnitudes 1e-160 to 1e160, a tenth of them
    zero: their squares underflow and overflow."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-160.0, 160.0, size=shape)
    values[rng.random(shape) < 0.1] = 0.0
    return values


def presorted_solve(mesh, problem):
    """Nodal values of a linear problem's solution with the interior
    vertices numbered by id: the system is assembled in that order, sorted
    by coordinates (x, then y) and copied into the sorted order, factored
    there, and the solution is scattered back through the order."""
    samples = volume_samples(mesh, problem)
    t = mesh.triangles
    full = sp.coo_matrix(
        (samples.local.reshape(-1), (np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices),
    ).tocsr()
    interior = np.flatnonzero(~mesh.is_boundary_vertex)
    matrix = full[interior][:, interior].tocsr()
    rhs = np.bincount(t.ravel(), weights=samples.load.ravel(), minlength=mesh.n_vertices)
    coords = mesh.vertices[interior]
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    lu = spla.splu(matrix[order][:, order].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.1, options={"SymmetricMode": True})
    values = np.zeros(mesh.n_vertices)
    values[interior] = lu.solve(rhs[interior][order])[np.argsort(order)]
    return values


def two_block_newton(mesh, problem, initial_guess=None):
    """Nodal values and info of ``solve_nonlinear`` as first written, with
    the residual at zero as its scale and a ``while`` line search (an
    exhausted budget returns None)."""
    interior = mesh.interior_vertices
    info = {"newton_iterations": 0, "fallback_iterations": 0, "residuals": []}
    values = np.zeros(mesh.n_vertices) if initial_guess is None else initial_guess.values.copy()
    samples = volume_samples(mesh, problem)
    ref_norm = float(np.linalg.norm(
        nonlinear_residual(mesh, problem, np.zeros(mesh.n_vertices), samples)))
    if interior.size == 0 or ref_norm == 0.0:
        return np.zeros(mesh.n_vertices), info
    target = 1e-10 * ref_norm
    residual = nonlinear_residual(mesh, problem, values, samples)
    res_norm = float(np.linalg.norm(residual))
    info["residuals"].append(res_norm)

    while res_norm > target and info["newton_iterations"] < 200:
        jac = nonlinear_jacobian(mesh, problem, values)
        try:
            solve = _symmetric_factor(jac)
        except RuntimeError:
            break
        delta = solve(residual)
        accepted = False
        step = 1.0
        while step >= 2.0**-12:
            trial = values.copy()
            trial[interior] -= step * delta
            trial_residual = nonlinear_residual(mesh, problem, trial, samples)
            trial_norm = float(np.linalg.norm(trial_residual))
            if np.isfinite(trial_norm) and trial_norm < res_norm:
                values, residual, res_norm = trial, trial_residual, trial_norm
                accepted = True
                break
            step *= 0.5
        info["newton_iterations"] += 1
        info["residuals"].append(res_norm)
        if not accepted:
            break

    if res_norm > target:
        step_size = problem.monotone_const / problem.lipschitz_const**2
        riesz = _symmetric_factor(laplace_stiffness(mesh))
        while res_norm > target and info["fallback_iterations"] < 10_000:
            values[interior] -= step_size * riesz(residual)
            residual = nonlinear_residual(mesh, problem, values, samples)
            res_norm = float(np.linalg.norm(residual))
            info["fallback_iterations"] += 1
        info["residuals"].append(res_norm)
    return (values, info) if res_norm <= target else None
