"""Continuous operators and the benchmark catalogue.

Linear problems describe ``-div(A grad u) + b . grad u + c u = f`` through
coefficient closures; nonlinear problems describe ``-div F(grad u) = f``
for a strongly monotone flux ``F``. All closures are vectorised: a
coefficient receives points of shape (n, 2) and returns (n,), (n, 2) or
(n, 2, 2); the flux and its Jacobian receive gradients (n, 2) and return
(n, 2) or (n, 2, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import lshape_mesh, unit_square_mesh


@dataclass(frozen=True)
class LinearProblem:
    """Coefficients of a (possibly non-symmetric) linear elliptic operator.

    The form need only satisfy a Garding inequality. ``ellipticity_const``
    is a declared coercivity constant, where one is known; no loop code
    reads it.
    """

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
    and strong-monotonicity constants of the flux; they drive the step
    size of the damped-gradient fallback solver.
    ``flux(y)`` and ``flux_jacobian(y)`` depend on the gradient only, so
    the elementwise flux divergence of a P1 function vanishes exactly and
    both are evaluated once per element, where that gradient is constant.
    """

    name: str
    flux: Callable
    flux_jacobian: Callable
    source: Callable
    lipschitz_const: float
    monotone_const: float
    exact_u: Optional[Callable] = None
    exact_grad: Optional[Callable] = None
    make_initial_mesh: Callable = unit_square_mesh


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


def _sine_u(x):
    """sin(pi x) sin(pi y), the exact solution of two built-in problems."""
    return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])


def _sine_grad(x):
    sx, cx = np.sin(np.pi * x[..., 0]), np.cos(np.pi * x[..., 0])
    sy, cy = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
    return np.pi * np.stack([cx * sy, sx * cy], axis=-1)


def _square_smooth():
    def source(x):
        return 2.0 * np.pi**2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    return LinearProblem(
        name="square_smooth",
        diffusion=_constant_matrix(np.eye(2)),
        source=source,
        exact_u=_sine_u,
        exact_grad=_sine_grad,
        make_initial_mesh=lambda: unit_square_mesh(cross=True),
        ellipticity_const=1.0,
    )


def _convection_diffusion():
    # constant advection is divergence free and the reaction is positive,
    # so the form is elliptic with constant 1
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
    """s = r^(2/3) sin(2 phi / 3) and the components of its gradient; s is
    harmonic and vanishes on both legs of the reentrant corner."""
    r = np.hypot(x[..., 0], x[..., 1])
    phi = _corner_angle(x)
    inside = r > 0.0
    sin_t, cos_t = np.sin(2.0 * phi / 3.0), np.cos(2.0 * phi / 3.0)
    s = r ** (2.0 / 3.0) * sin_t
    scale = (2.0 / 3.0) * np.where(inside, r, 1.0) ** (-1.0 / 3.0)
    radial, angular = scale * sin_t, scale * cos_t
    # radial e_r + angular e_phi, e_r = (cos, sin), e_phi = (-sin, cos)
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    gx = np.where(inside, radial * cos_p - angular * sin_p, 0.0)
    gy = np.where(inside, radial * sin_p + angular * cos_p, 0.0)
    return s, (gx, gy)


def _boundary_bump(x):
    """P = (1 - x^2)(1 - y^2) with the components of its gradient and its
    Laplacian: kills the trace on the outer square; the legs are handled
    by the singular factor."""
    xx, yy = x[..., 0], x[..., 1]
    p = (1.0 - xx**2) * (1.0 - yy**2)
    grad = (-2.0 * xx * (1.0 - yy**2), -2.0 * yy * (1.0 - xx**2))
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
        s, (sx, sy) = _singular_part(x)
        p, (px, py), _ = _boundary_bump(x)
        return np.stack([p * sx + s * px, p * sy + s * py], axis=-1)

    def source(x):
        s, (sx, sy) = _singular_part(x)
        _, (px, py), lap_p = _boundary_bump(x)
        return -(2.0 * (sx * px + sy * py) + s * lap_p)

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
    # derivative is 7/8 (attained at |y|^2 = 3) and the largest is 2.
    # |y|^2 is the sum of the two squares written out, which has the bits
    # of np.sum over the length-2 axis at a third of its cost
    def norm_sq(y):
        return y[..., 0] * y[..., 0] + y[..., 1] * y[..., 1]

    def flux(y):
        factor = 1.0 + 1.0 / (1.0 + norm_sq(y))
        return factor[..., None] * y

    def flux_jacobian(y):
        norm_sq_y = norm_sq(y)
        denom = (1.0 + norm_sq_y) ** 2
        outer = -2.0 * y[..., :, None] * y[..., None, :] / denom[..., None, None]
        diag = (1.0 + 1.0 / (1.0 + norm_sq_y))[..., None, None] * np.eye(2)
        return outer + diag

    def source(x):
        # -(2 dphi (H g).g + phi lap), phi = 1 + 1/s, dphi = -1/s^2, s = 1 + |g|^2,
        # at u = sin(pi x) sin(pi y): the plain products and sums, each written
        # over an operand not read again, so the bits stay and few arrays live
        sx, sy = np.pi * x[..., 0], np.pi * x[..., 1]
        cx, cy = np.cos(sx), np.cos(sy)
        sx, sy = np.sin(sx, out=sx), np.sin(sy, out=sy)
        gx, gy = np.pi * (cx * sy), np.pi * (sx * cy)
        lap = -2.0 * np.pi**2 * sx
        lap *= sy
        hxx = np.multiply(np.multiply(sx, -np.pi**2, out=sx), sy, out=sx)
        hxy = np.multiply(np.multiply(cx, np.pi**2, out=cx), cy, out=cx)
        del sx, sy, cx, cy
        hx = hxx * gx
        hx += hxy * gy
        hy = np.multiply(hxy, gx, out=hxy)
        hy += np.multiply(hxx, gy, out=hxx)
        hg = np.multiply(hx, gx, out=hx)
        hg += np.multiply(hy, gy, out=hy)
        del hxx, hxy, hx, hy
        s = np.multiply(gx, gx, out=gx)
        s += np.multiply(gy, gy, out=gy)
        s += 1.0
        return -(2.0 * (-1.0 / s**2) * hg + (1.0 + 1.0 / s) * lap)

    return NonlinearProblem(
        name="magnetostatics_nl",
        flux=flux,
        flux_jacobian=flux_jacobian,
        source=source,
        lipschitz_const=2.0,
        monotone_const=7.0 / 8.0,
        exact_u=_sine_u,
        exact_grad=_sine_grad,
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
