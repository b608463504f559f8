"""Sampled checks of problem data: flux monotonicity and Jacobians, and the
weak residual of a manufactured solution (test scale only)."""

import numpy as np

from triafem import quadrature
from triafem.problems import LinearProblem


def duffy_rule(n):
    """High-order tensor rule on the triangle via the collapsed-square map.

    Returns barycentric points (n*n, 3) and weights summing to 1, for
    accuracy beyond the fixed degree-5 rule.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = 2.0 * np.outer(wu * (1.0 - u), wu).ravel()
    lam1 = uu.ravel()
    lam2 = (vv * (1.0 - uu)).ravel()
    lam3 = 1.0 - lam1 - lam2
    return np.stack([lam1, lam2, lam3], axis=1), ww


def flux_monotonicity_infimum(problem, n_pairs=10_000, scale=3.0, seed=0):
    """Observed infimum of (F(y) - F(z)) . (y - z) / |y - z|^2 over random pairs."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, scale, size=(n_pairs, 2))
    z = rng.normal(0.0, scale, size=(n_pairs, 2))
    d = y - z
    norm_sq = np.sum(d * d, axis=1)
    keep = norm_sq > 1e-12
    num = np.sum((problem.flux(y) - problem.flux(z)) * d, axis=1)
    return float((num[keep] / norm_sq[keep]).min())


def flux_jacobian_fd_error(problem, n_samples=100, scale=2.0, seed=0, step=1e-6):
    """Max relative error of the declared flux Jacobian vs central differences."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, scale, size=(n_samples, 2))
    jac = problem.flux_jacobian(y)
    fd = np.empty_like(jac)
    for k in range(2):
        dy = np.zeros_like(y)
        dy[:, k] = step
        fd[:, :, k] = (problem.flux(y + dy) - problem.flux(y - dy)) / (2.0 * step)
    scale_ref = np.abs(jac).max()
    return float(np.abs(fd - jac).max() / scale_ref)


def flux_jacobian_asymmetry(problem, n_samples=100, scale=2.0, seed=0):
    """Max entrywise asymmetry of the flux Jacobian over random samples."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, scale, size=(n_samples, 2))
    jac = problem.flux_jacobian(y)
    return float(np.abs(jac - np.swapaxes(jac, -1, -2)).max())


# -- manufactured-solution residual ------------------------------------------

def _square_bump(x):
    xx, yy = x[..., 0], x[..., 1]
    w = xx * (1.0 - xx) * yy * (1.0 - yy)
    grad = np.stack(
        [(1.0 - 2.0 * xx) * yy * (1.0 - yy), xx * (1.0 - xx) * (1.0 - 2.0 * yy)],
        axis=-1,
    )
    return w, grad


def _lshape_bump(x):
    # vanishes on the whole L-shape boundary (legs included) and to second
    # order at the reentrant corner, keeping the integrand regular there
    xx, yy = x[..., 0], x[..., 1]
    w = xx**2 * yy**2 * (1.0 - xx**2) * (1.0 - yy**2)
    gx = (2.0 * xx - 4.0 * xx**3) * yy**2 * (1.0 - yy**2)
    gy = xx**2 * (1.0 - xx**2) * (2.0 * yy - 4.0 * yy**3)
    return w, np.stack([gx, gy], axis=-1)


def manufactured_weak_residual(problem, mesh, n_tests=20, seed=0, gauss_order=None):
    """Largest relative weak residual of the exact solution.

    Tests the consistency of a manufactured right-hand side: for each of
    ``n_tests`` random smooth test functions vanishing on the boundary,
    integrates the weak form of the exact solution minus the load by
    quadrature on ``mesh`` and reports ``max |residual| / scale``.
    ``gauss_order`` switches from the default degree-5 rule to an n-by-n
    tensor rule per triangle.
    """
    if problem.exact_u is None or problem.exact_grad is None:
        raise ValueError("problem has no exact solution to test")
    rng = np.random.default_rng(seed)
    if gauss_order is None:
        bary, weights = quadrature.TRI_BARY, quadrature.TRI_WEIGHTS
    else:
        bary, weights = duffy_rule(gauss_order)
    p = mesh.vertices[mesh.triangles]
    pts = (
        bary[:, 0][None, :, None] * p[:, None, 0, :]
        + bary[:, 1][None, :, None] * p[:, None, 1, :]
        + bary[:, 2][None, :, None] * p[:, None, 2, :]
    )
    w_q = weights * mesh.areas[:, None]
    flat = pts.reshape(-1, 2)

    grad_u = problem.exact_grad(flat)
    u_val = problem.exact_u(flat)
    f_val = problem.source(flat)
    if isinstance(problem, LinearProblem):
        flux = np.einsum("nij,nj->ni", problem.diffusion(flat), grad_u)
        lower = np.zeros_like(u_val)
        if problem.advection is not None:
            lower += np.sum(problem.advection(flat) * grad_u, axis=-1)
        if problem.reaction is not None:
            lower += problem.reaction(flat) * u_val
    else:
        flux = problem.flux(grad_u)
        lower = np.zeros_like(u_val)
        if problem.lower_order is not None:
            lower += problem.lower_order(flat, u_val, grad_u)

    bump = _lshape_bump if mesh.vertices.min() < -0.5 else _square_bump
    w_val, w_grad = bump(flat)

    worst = 0.0
    for _ in range(n_tests):
        coeff = rng.uniform(-1.0, 1.0, size=4)
        sigma = coeff[0] + coeff[1] * flat[:, 0] + coeff[2] * flat[:, 1] \
            + coeff[3] * flat[:, 0] * flat[:, 1]
        sigma_grad = np.stack(
            [coeff[1] + coeff[3] * flat[:, 1], coeff[2] + coeff[3] * flat[:, 0]], axis=-1
        )
        v = w_val * sigma
        v_grad = sigma[:, None] * w_grad + w_val[:, None] * sigma_grad
        integrand = np.sum(flux * v_grad, axis=-1) + (lower - f_val) * v
        scale_int = np.abs(np.sum(flux * v_grad, axis=-1)) + np.abs(f_val * v)
        residual = float(np.sum(w_q * integrand.reshape(w_q.shape)))
        scale = float(np.sum(w_q * scale_int.reshape(w_q.shape)))
        worst = max(worst, abs(residual) / scale)
    return worst


def magnetostatics_source_plain(x):
    """The ``magnetostatics_nl`` source as first written: every intermediate
    is named and lives until the return."""
    sx, cx = np.sin(np.pi * x[..., 0]), np.cos(np.pi * x[..., 0])
    sy, cy = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
    gx, gy = np.pi * (cx * sy), np.pi * (sx * cy)
    t = gx * gx + gy * gy
    lap = -2.0 * np.pi**2 * sx * sy
    # hessian of sin(pi x) sin(pi y), applied to the gradient
    hxx = -np.pi**2 * sx * sy
    hxy = np.pi**2 * cx * cy
    hx, hy = hxx * gx + hxy * gy, hxy * gx + hxx * gy
    phi = 1.0 + 1.0 / (1.0 + t)
    dphi = -1.0 / (1.0 + t) ** 2
    return -(2.0 * dphi * (hx * gx + hy * gy) + phi * lap)
