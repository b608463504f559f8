import tracemalloc

import numpy as np
import pytest
from helpers_fem import (
    lshape_exact_grad_stacked,
    lshape_source_stacked,
    magnetostatics_source_stacked,
    skew_flux_problem,
)
from helpers_problems import (
    flux_jacobian_asymmetry,
    flux_jacobian_fd_error,
    flux_monotonicity_infimum,
    magnetostatics_source_plain,
    manufactured_weak_residual,
)

from triafem.mesh import uniform_refine
from triafem.problems import builtin_names, builtin_problem


def test_unknown_problem_name():
    with pytest.raises(ValueError, match="unknown problem"):
        builtin_problem("not_a_problem")


def test_catalogue_names():
    assert set(builtin_names()) == {
        "convection_diffusion", "lshape_poisson", "magnetostatics_nl", "square_smooth",
    }


def test_magnetostatics_flux_values():
    p = builtin_problem("magnetostatics_nl")
    assert p.flux(np.array([[1.0, 0.0]]))[0] == pytest.approx([1.5, 0.0])
    assert p.flux(np.zeros((1, 2)))[0] == pytest.approx([0.0, 0.0])


def test_magnetostatics_jacobian_at_zero():
    p = builtin_problem("magnetostatics_nl")
    jac = p.flux_jacobian(np.zeros((1, 2)))[0]
    assert jac == pytest.approx(2.0 * np.eye(2))


def test_magnetostatics_jacobian_formula():
    # spot check the closed form at y = (1, 2): |y|^2 = 5
    p = builtin_problem("magnetostatics_nl")
    jac = p.flux_jacobian(np.array([[1.0, 2.0]]))[0]
    outer = -2.0 / 36.0 * np.array([[1.0, 2.0], [2.0, 4.0]])
    expected = outer + (1.0 + 1.0 / 6.0) * np.eye(2)
    assert jac == pytest.approx(expected, rel=1e-14)


def test_magnetostatics_monotonicity_sample():
    p = builtin_problem("magnetostatics_nl")
    inf_observed = flux_monotonicity_infimum(p, n_pairs=10_000, seed=1)
    # declared constant is the sharp directional bound 7/8
    assert inf_observed >= p.monotone_const - 1e-12
    assert inf_observed <= p.lipschitz_const


def test_magnetostatics_jacobian_fd_consistency():
    p = builtin_problem("magnetostatics_nl")
    assert flux_jacobian_fd_error(p, n_samples=100, seed=2) <= 1e-6


def test_magnetostatics_jacobian_symmetry_exact():
    p = builtin_problem("magnetostatics_nl")
    assert flux_jacobian_asymmetry(p, n_samples=100, seed=3) == 0.0


def test_skew_flux_problem_keeps_its_declared_constants():
    # the non-symmetric test flux: its declared constants are sharp bounds,
    # the monotonicity constant attained at |y|^2 = 2.6 and the Lipschitz
    # constant at y = 0
    p = skew_flux_problem()
    assert flux_monotonicity_infimum(p, n_pairs=10_000, seed=1) >= p.monotone_const - 1e-12
    radius = np.sqrt(2.6)
    jac = p.flux_jacobian(np.array([[radius, 0.0], [0.0, 0.0]]))
    assert np.linalg.eigvalsh(0.5 * (jac[0] + jac[0].T))[0] == pytest.approx(119.0 / 144.0)
    assert np.linalg.norm(jac[1], 2) == pytest.approx(p.lipschitz_const)
    rng = np.random.default_rng(4)
    y = rng.normal(0.0, 3.0, size=(10_000, 2))
    assert np.linalg.norm(p.flux_jacobian(y), 2, axis=(1, 2)).max() <= p.lipschitz_const
    assert flux_jacobian_fd_error(p, n_samples=100, seed=2) <= 1e-6
    assert flux_jacobian_asymmetry(p, n_samples=100, seed=3) > 1e-3


def test_linear_pointwise_operator():
    p = builtin_problem("square_smooth")
    x = np.array([[0.2, 0.7]])
    assert p.diffusion(x)[0] @ np.array([1.0, 0.0]) == pytest.approx([1.0, 0.0])
    assert p.advection is None and p.reaction is None


def test_convection_diffusion_pointwise():
    p = builtin_problem("convection_diffusion")
    x = np.array([[0.5, 0.5]])
    grad, u = np.zeros(2), 1.0
    assert p.diffusion(x)[0] @ grad == pytest.approx([0.0, 0.0])
    assert p.advection(x)[0] @ grad + p.reaction(x)[0] * u == pytest.approx(1.0)


def test_square_smooth_source():
    p = builtin_problem("square_smooth")
    x = np.array([[0.5, 0.5], [0.25, 0.75]])
    expected = 2.0 * np.pi**2 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    assert p.source(x) == pytest.approx(expected)


def test_lshape_exact_solution_boundary_and_interior():
    p = builtin_problem("lshape_poisson")
    # boundary samples: outer square edges and the two reentrant legs
    ts = np.linspace(0.0, 1.0, 17)
    legs = np.concatenate([
        np.stack([ts, np.zeros_like(ts)], axis=1),          # y = 0, x >= 0
        np.stack([np.zeros_like(ts), -ts], axis=1),         # x = 0, y <= 0
        np.stack([np.full_like(ts, -1.0), 2 * ts - 1], axis=1),
        np.stack([2 * ts - 1, np.full_like(ts, 1.0)], axis=1),
    ])
    assert np.abs(p.exact_u(legs)).max() < 1e-14
    # u = r^(2/3) sin(2 phi / 3) (1 - x^2)(1 - y^2)
    x = np.array([[0.1, 0.1]])
    r = np.hypot(0.1, 0.1)
    expected = r ** (2 / 3) * np.sin(2 * (np.pi / 4) / 3) * (1 - 0.01) ** 2
    assert p.exact_u(x)[0] == pytest.approx(expected)
    # the source is bounded and fades at the reentrant corner
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(2000, 2))
    pts = pts[~((pts[:, 0] > 0) & (pts[:, 1] < 0))]
    assert np.abs(p.source(pts)).max() < 10.0
    near = np.array([[1e-4, 1e-4], [-1e-4, 1e-4]])
    assert np.abs(p.source(near)).max() < 0.05


def test_lshape_exact_gradient_fd():
    p = builtin_problem("lshape_poisson")
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.95, 0.95, size=(300, 2))
    keep = ~((pts[:, 0] > 0.02) & (pts[:, 1] < -0.02)) & (np.hypot(pts[:, 0], pts[:, 1]) > 0.02)
    pts = pts[keep]
    h = 1e-7
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    fd = np.stack(
        [(p.exact_u(pts + ex) - p.exact_u(pts - ex)) / (2 * h),
         (p.exact_u(pts + ey) - p.exact_u(pts - ey)) / (2 * h)],
        axis=1,
    )
    assert np.abs(fd - p.exact_grad(pts)).max() < 1e-5


@pytest.mark.parametrize("name,levels,tol", [
    ("square_smooth", 6, 1e-12),
    ("magnetostatics_nl", 6, 1e-12),
    ("lshape_poisson", 8, 1e-8),
])
def test_manufactured_weak_residual(name, levels, tol):
    p = builtin_problem(name)
    mesh = uniform_refine(p.make_initial_mesh(), levels)
    assert manufactured_weak_residual(p, mesh, n_tests=20, seed=0, gauss_order=10) <= tol


def test_source_closures_match_stacked_oracles_bit_for_bit():
    # the closures write each dot product as x0 * y0 + x1 * y1; the oracles
    # stack the vectors and sum them, with the same operands in the same order
    rng = np.random.default_rng(17)
    corner_and_axes = np.array([
        [0.0, 0.0], [-0.5, 0.0], [-0.5, -0.0], [0.0, 0.5], [0.0, -0.5],
        [0.5, 0.0], [-1.0, -1.0], [1.0, 1.0],
    ])
    pts = np.concatenate([corner_and_axes, rng.uniform(-1.0, 1.0, (120_000, 2))])
    assert np.count_nonzero(np.arctan2(pts[:, 1], pts[:, 0]) < 0.0) > 10_000
    lshape = builtin_problem("lshape_poisson")
    assert np.array_equal(lshape.source(pts), lshape_source_stacked(pts))
    assert np.array_equal(lshape.exact_grad(pts), lshape_exact_grad_stacked(pts))
    square = np.concatenate([corner_and_axes[:1], rng.uniform(0.0, 1.0, (120_000, 2))])
    magnetostatics = builtin_problem("magnetostatics_nl")
    assert np.array_equal(magnetostatics.source(square), magnetostatics_source_stacked(square))


def _peak_bytes(fn, x):
    """Peak bytes that ``fn(x)`` allocates, its result included."""
    tracemalloc.start()
    try:
        fn(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_magnetostatics_source_keeps_the_plain_bits_in_half_the_memory():
    # each intermediate is written over an operand with no later use: the
    # bits of the plain expression on random and on dyadic points (where
    # sin and cos hit 0 and 1), at half its peak on the 137,536 quadrature
    # points of the magnetostatics reference mesh
    source = builtin_problem("magnetostatics_nl").source
    rng = np.random.default_rng(5)
    dyadic = np.stack(np.meshgrid(*2 * [np.arange(129) / 128]), axis=-1).reshape(-1, 2)
    for x in (rng.uniform(0.0, 1.0, (137_536, 2)), dyadic, rng.uniform(-3.0, 3.0, (7, 2))):
        assert np.array_equal(source(x), magnetostatics_source_plain(x))
    x = rng.uniform(0.0, 1.0, (137_536, 2))
    assert _peak_bytes(source, x) <= 0.5 * _peak_bytes(magnetostatics_source_plain, x)


def test_magnetostatics_norm_keeps_the_bits_of_a_sum_over_the_last_axis():
    # flux and flux_jacobian form |y|^2 as y0 * y0 + y1 * y1; it must have
    # the bits of np.sum(y * y, axis=-1), on random gradients of every
    # magnitude, zeros, and squares that overflow
    problem = builtin_problem("magnetostatics_nl")
    rng = np.random.default_rng(11)
    y = rng.normal(size=(4000, 2)) * 10.0 ** rng.uniform(-160, 160, size=(4000, 1))
    y = np.concatenate([y, np.zeros((3, 2)), [[0.0, 1e200], [-1e155, 3.0], [1e-170, 0.0]]])

    def flux(y):
        return (1.0 + 1.0 / (1.0 + np.sum(y * y, axis=-1)))[..., None] * y

    def flux_jacobian(y):
        norm_sq = np.sum(y * y, axis=-1)
        outer = -2.0 * y[..., :, None] * y[..., None, :] / ((1.0 + norm_sq) ** 2)[..., None, None]
        return outer + (1.0 + 1.0 / (1.0 + norm_sq))[..., None, None] * np.eye(2)

    with np.errstate(over="ignore", invalid="ignore"):
        for grads in (y, y[:3000].reshape(-1, 3, 2)):
            assert np.array_equal(problem.flux(grads), flux(grads), equal_nan=True)
            assert np.array_equal(problem.flux_jacobian(grads), flux_jacobian(grads),
                                  equal_nan=True)
