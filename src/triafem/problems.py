"""Continuous operators and the benchmark catalogue.

Linear problems describe ``-div(A grad u) + b . grad u + c u = f`` through
coefficient closures; nonlinear problems describe
``-div F(x, grad u) + g(x, u, grad u) = f`` for a strongly monotone flux
``F``. All closures are vectorised over arrays of points: a coefficient
receives points of shape (n, 2) and returns (n,), (n, 2) or (n, 2, 2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import quadrature
from .mesh import lshape_mesh, uniform_refine, unit_square_mesh


class EllipticityWarning(UserWarning):
    """The sampled sufficient condition for ellipticity failed."""


@dataclass(frozen=True)
class LinearProblem:
    """Coefficients of a (possibly non-symmetric) linear elliptic operator."""

    name: str
    diffusion: Callable
    source: Callable
    advection: Optional[Callable] = None
    reaction: Optional[Callable] = None
    diffusion_div: Optional[Callable] = None
    exact_u: Optional[Callable] = None
    exact_grad: Optional[Callable] = None
    make_initial_mesh: Callable = unit_square_mesh
    ellipticity_const: Optional[float] = None


@dataclass(frozen=True)
class NonlinearProblem:
    """Strongly monotone quasilinear operator with declared constants.

    ``lipschitz_const`` and ``monotone_const`` are the declared Lipschitz
    and strong-monotonicity constants of the flux (plus lower-order term);
    they drive the step size of the damped-gradient fallback solver.
    ``grad_only`` states that the flux depends on the gradient argument
    only, which makes the elementwise flux divergence of a P1 function
    vanish exactly, and lets assembly evaluate ``flux`` and
    ``flux_jacobian`` once per element, where the gradient of a P1
    function is constant. Building the problem checks the claim: both
    closures must return the same values at two point sets.
    """

    name: str
    flux: Callable
    flux_jacobian: Callable
    source: Callable
    lipschitz_const: float
    monotone_const: float
    lower_order: Optional[Callable] = None
    lower_order_du: Optional[Callable] = None
    lower_order_dgrad: Optional[Callable] = None
    grad_only: bool = True
    exact_u: Optional[Callable] = None
    exact_grad: Optional[Callable] = None
    make_initial_mesh: Callable = unit_square_mesh

    def __post_init__(self):
        if not self.grad_only:
            return
        for name in ("flux", "flux_jacobian"):
            fn = getattr(self, name)
            first, second = (np.asarray(fn(x, _PROBE_GRADIENTS.copy())) for x in _PROBE_POINTS)
            if not np.array_equal(first, second, equal_nan=True):
                raise ValueError(
                    f"problem {self.name!r} declares grad_only, but its {name} "
                    "depends on the point"
                )


# fixed gradients and two point sets, across the built-in domains, at which
# a gradient-only flux and its Jacobian must not tell the point sets apart
_rng = np.random.default_rng(12108369)
_PROBE_GRADIENTS = 3.0 * _rng.standard_normal((32, 2))
_PROBE_POINTS = _rng.uniform(-1.0, 1.0, (2, 32, 2))
del _rng


# -- builtin problems -------------------------------------------------------

def _constant_matrix(mat):
    mat = np.asarray(mat, dtype=float)

    def coefficient(x):
        return np.broadcast_to(mat, (x.shape[0], 2, 2))

    return coefficient


def _constant_vector(vec):
    vec = np.asarray(vec, dtype=float)

    def coefficient(x):
        return np.broadcast_to(vec, (x.shape[0], 2))

    return coefficient


def _constant_scalar(value):
    def coefficient(x):
        return np.full(x.shape[0], float(value))

    return coefficient


def _square_smooth():
    def exact_u(x):
        return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    def exact_grad(x):
        sx, cx = np.sin(np.pi * x[..., 0]), np.cos(np.pi * x[..., 0])
        sy, cy = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
        return np.pi * np.stack([cx * sy, sx * cy], axis=-1)

    def source(x):
        return 2.0 * np.pi**2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    return LinearProblem(
        name="square_smooth",
        diffusion=_constant_matrix(np.eye(2)),
        source=source,
        exact_u=exact_u,
        exact_grad=exact_grad,
        make_initial_mesh=lambda: unit_square_mesh(cross=True),
        ellipticity_const=1.0,
    )


def _convection_diffusion():
    # constant advection is divergence free and the reaction is positive,
    # so the form is elliptic with constant 1 even though the sampled
    # sufficient condition is far from sharp here
    b = np.array([3.0, 2.5])
    return LinearProblem(
        name="convection_diffusion",
        diffusion=_constant_matrix(np.eye(2)),
        advection=_constant_vector(b),
        reaction=_constant_scalar(1.0),
        source=_constant_scalar(1.0),
        make_initial_mesh=lambda: unit_square_mesh(cross=True),
        ellipticity_const=1.0,
    )


def _corner_angle(x):
    """Angle in [0, 3*pi/2] measured from the positive x axis."""
    phi = np.arctan2(x[..., 1], x[..., 0])
    return np.where(phi < 0.0, phi + 2.0 * np.pi, phi)


def _singular_part(x):
    """s = r^(2/3) sin(2 phi / 3) and its gradient; s is harmonic and
    vanishes on both legs of the reentrant corner."""
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
    """P = (1 - x^2)(1 - y^2) with gradient and Laplacian: kills the trace
    on the outer square; the legs are handled by the singular factor."""
    xx, yy = x[..., 0], x[..., 1]
    p = (1.0 - xx**2) * (1.0 - yy**2)
    grad = np.stack([-2.0 * xx * (1.0 - yy**2), -2.0 * yy * (1.0 - xx**2)], axis=-1)
    lap = -2.0 * (1.0 - yy**2) - 2.0 * (1.0 - xx**2)
    return p, grad, lap


def _lshape_poisson():
    # u = s * P: the harmonic singular function times a polynomial bump,
    # so f = -Laplace(u) = -(2 grad s . grad P + s Laplace P) stays bounded
    # (grad P vanishes linearly at the corner) and u has homogeneous
    # Dirichlet data on the whole boundary
    def exact_u(x):
        s, _ = _singular_part(x)
        p, _, _ = _boundary_bump(x)
        return s * p

    def exact_grad(x):
        s, grad_s = _singular_part(x)
        p, grad_p, _ = _boundary_bump(x)
        return p[..., None] * grad_s + s[..., None] * grad_p

    def source(x):
        s, grad_s = _singular_part(x)
        _, grad_p, lap_p = _boundary_bump(x)
        return -(2.0 * np.sum(grad_s * grad_p, axis=-1) + s * lap_p)

    return LinearProblem(
        name="lshape_poisson",
        diffusion=_constant_matrix(np.eye(2)),
        source=source,
        exact_u=exact_u,
        exact_grad=exact_grad,
        make_initial_mesh=lshape_mesh,
        ellipticity_const=1.0,
    )


def _magnetostatics():
    # flux F(y) = (1 + 1/(1 + |y|^2)) y; its smallest directional
    # derivative is 7/8 (attained at |y|^2 = 3) and the largest is 2
    def flux(x, y):
        factor = 1.0 + 1.0 / (1.0 + np.sum(y * y, axis=-1))
        return factor[..., None] * y

    def flux_jacobian(x, y):
        norm_sq = np.sum(y * y, axis=-1)
        denom = (1.0 + norm_sq) ** 2
        outer = -2.0 * y[..., :, None] * y[..., None, :] / denom[..., None, None]
        diag = (1.0 + 1.0 / (1.0 + norm_sq))[..., None, None] * np.eye(2)
        return outer + diag

    def exact_u(x):
        return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    def exact_grad(x):
        sx, cx = np.sin(np.pi * x[..., 0]), np.cos(np.pi * x[..., 0])
        sy, cy = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
        return np.pi * np.stack([cx * sy, sx * cy], axis=-1)

    def source(x):
        sx, cx = np.sin(np.pi * x[..., 0]), np.cos(np.pi * x[..., 0])
        sy, cy = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
        grad = np.pi * np.stack([cx * sy, sx * cy], axis=-1)
        t = np.sum(grad * grad, axis=-1)
        lap = -2.0 * np.pi**2 * sx * sy
        # hessian of sin(pi x) sin(pi y)
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

    return NonlinearProblem(
        name="magnetostatics_nl",
        flux=flux,
        flux_jacobian=flux_jacobian,
        source=source,
        lipschitz_const=2.0,
        monotone_const=7.0 / 8.0,
        exact_u=exact_u,
        exact_grad=exact_grad,
        make_initial_mesh=lambda: unit_square_mesh(cross=True),
    )


_BUILTINS = {
    "square_smooth": _square_smooth,
    "convection_diffusion": _convection_diffusion,
    "lshape_poisson": _lshape_poisson,
    "magnetostatics_nl": _magnetostatics,
}


def builtin_problem(name):
    """Fully populated benchmark problem by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown problem {name!r}; known problems: {known}") from None
    return factory()


def builtin_names():
    return tuple(sorted(_BUILTINS))


# -- sampled consistency checks ----------------------------------------------

def check_ellipticity(problem, samples=4096):
    """Sampled sufficient ellipticity condition for linear problems.

    Returns ``lambda_min(A) - C * |b| - C^2 * max(0, -c)`` minimised over
    quadrature points of a uniformly refined initial mesh, with ``C`` the
    domain diameter. A declared ellipticity constant short-circuits the
    check. A non-positive margin only warns: the condition is sufficient,
    not necessary.
    """
    if problem.ellipticity_const is not None:
        return float(problem.ellipticity_const)
    mesh = problem.make_initial_mesh()
    while mesh.n_elements * quadrature.TRI_BARY.shape[0] < samples:
        mesh = uniform_refine(mesh, 1)
    pts = mesh.quadrature_points().reshape(-1, 2)
    box = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    diameter = float(np.hypot(box[0], box[1]))
    lam_min = np.linalg.eigvalsh(problem.diffusion(pts)).min()
    margin = float(lam_min)
    if problem.advection is not None:
        margin -= diameter * float(np.linalg.norm(problem.advection(pts), axis=1).max())
    if problem.reaction is not None:
        margin -= diameter**2 * float(np.maximum(0.0, -problem.reaction(pts)).max())
    if margin <= 0.0:
        warnings.warn(
            f"problem {problem.name!r}: sampled ellipticity margin {margin:.3g} <= 0; "
            "the operator may be indefinite",
            EllipticityWarning,
            stacklevel=2,
        )
    return margin


def flux_monotonicity_infimum(problem, n_pairs=10_000, scale=3.0, seed=0):
    """Observed infimum of (F(y) - F(z)) . (y - z) / |y - z|^2 over random pairs."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, scale, size=(n_pairs, 2))
    z = rng.normal(0.0, scale, size=(n_pairs, 2))
    x = rng.uniform(0.0, 1.0, size=(n_pairs, 2))
    d = y - z
    norm_sq = np.sum(d * d, axis=1)
    keep = norm_sq > 1e-12
    num = np.sum((problem.flux(x, y) - problem.flux(x, z)) * d, axis=1)
    return float((num[keep] / norm_sq[keep]).min())


def flux_jacobian_fd_error(problem, n_samples=100, scale=2.0, seed=0, step=1e-6):
    """Max relative error of the declared flux Jacobian vs central differences."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, scale, size=(n_samples, 2))
    x = rng.uniform(0.0, 1.0, size=(n_samples, 2))
    jac = problem.flux_jacobian(x, y)
    fd = np.empty_like(jac)
    for k in range(2):
        dy = np.zeros_like(y)
        dy[:, k] = step
        fd[:, :, k] = (problem.flux(x, y + dy) - problem.flux(x, y - dy)) / (2.0 * step)
    scale_ref = np.abs(jac).max()
    return float(np.abs(fd - jac).max() / scale_ref)


def flux_jacobian_asymmetry(problem, n_samples=100, scale=2.0, seed=0):
    """Max entrywise asymmetry of the flux Jacobian over random samples."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, scale, size=(n_samples, 2))
    x = rng.uniform(0.0, 1.0, size=(n_samples, 2))
    jac = problem.flux_jacobian(x, y)
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
        bary, weights = quadrature.duffy_rule(gauss_order)
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
        flux = problem.flux(flat, grad_u)
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
