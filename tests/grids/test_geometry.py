"""Unit tests for curvilinear differential geometry."""

import numpy as np
import pytest

from repro.grids import (
    StructuredBlock,
    cell_centers,
    cell_volumes,
    velocity_gradient_tensor,
)
from repro.synth import cartesian_lattice, warp_lattice

from .geometry_reference import (
    computational_derivatives,
    inverse_jacobian,
    jacobian,
    physical_gradient,
)


def cart_block(shape=(6, 6, 6), hi=(1.0, 1.0, 1.0)):
    return StructuredBlock(cartesian_lattice((0, 0, 0), hi, shape))


def test_computational_derivatives_linear_field():
    b = cart_block((5, 5, 5))
    f = 2.0 * np.arange(5)[:, None, None] + np.zeros(b.shape)
    d = computational_derivatives(f)
    np.testing.assert_allclose(d[..., 0], 2.0)
    np.testing.assert_allclose(d[..., 1], 0.0, atol=1e-14)
    np.testing.assert_allclose(d[..., 2], 0.0, atol=1e-14)


def test_jacobian_cartesian_is_diagonal_spacing():
    b = cart_block((5, 5, 5), hi=(4.0, 8.0, 12.0))
    jac = jacobian(b)
    expected = np.diag([1.0, 2.0, 3.0])
    np.testing.assert_allclose(jac[2, 2, 2], expected, atol=1e-12)


def test_inverse_jacobian_is_inverse():
    b = StructuredBlock(
        warp_lattice(cartesian_lattice((0, 0, 0), (1, 1, 1), (7, 7, 7)), 0.03)
    )
    jac = jacobian(b)
    inv = inverse_jacobian(jac)
    prod = np.einsum("...ab,...bc->...ac", jac, inv)
    eye = np.broadcast_to(np.eye(3), prod.shape)
    np.testing.assert_allclose(prod, eye, atol=1e-10)


def test_physical_gradient_linear_scalar_cartesian():
    b = cart_block((6, 7, 8), hi=(2.0, 3.0, 4.0))
    x = b.coords
    b.set_field("s", 3.0 * x[..., 0] - 2.0 * x[..., 1] + 0.5 * x[..., 2])
    g = physical_gradient(b, "s")
    np.testing.assert_allclose(g[..., 0], 3.0, atol=1e-10)
    np.testing.assert_allclose(g[..., 1], -2.0, atol=1e-10)
    np.testing.assert_allclose(g[..., 2], 0.5, atol=1e-10)


def test_physical_gradient_linear_scalar_warped():
    """Gradient of a linear field is exact even on a curvilinear grid."""
    coords = warp_lattice(
        cartesian_lattice((0, 0, 0), (1, 1, 1), (8, 8, 8)), amplitude=0.04
    )
    b = StructuredBlock(coords)
    x = b.coords
    b.set_field("s", 1.5 * x[..., 0] + 2.5 * x[..., 1] - 1.0 * x[..., 2])
    g = physical_gradient(b, "s")
    # Interior points: central differences of the trilinear-warped map
    # are second order, linear fields come out near-exact.
    interior = g[1:-1, 1:-1, 1:-1]
    np.testing.assert_allclose(interior[..., 0], 1.5, atol=1e-2)
    np.testing.assert_allclose(interior[..., 1], 2.5, atol=1e-2)
    np.testing.assert_allclose(interior[..., 2], -1.0, atol=1e-2)


def test_physical_gradient_rejects_vector():
    b = cart_block()
    b.set_field("velocity", np.zeros(b.shape + (3,)))
    with pytest.raises(ValueError):
        physical_gradient(b, "velocity")


def test_velocity_gradient_linear_shear():
    b = cart_block((6, 6, 6))
    x = b.coords
    u = np.zeros(b.shape + (3,))
    u[..., 0] = 2.0 * x[..., 1]  # du/dy = 2
    u[..., 2] = -1.0 * x[..., 0]  # dw/dx = -1
    b.set_field("velocity", u)
    G = velocity_gradient_tensor(b)
    np.testing.assert_allclose(G[2, 2, 2, 0, 1], 2.0, atol=1e-10)
    np.testing.assert_allclose(G[2, 2, 2, 2, 0], -1.0, atol=1e-10)
    np.testing.assert_allclose(G[2, 2, 2, 0, 0], 0.0, atol=1e-10)


def test_velocity_gradient_rejects_scalar():
    b = cart_block()
    b.set_field("p", np.zeros(b.shape))
    with pytest.raises(ValueError):
        velocity_gradient_tensor(b, "p")


def test_cell_centers_cartesian():
    b = cart_block((3, 3, 3), hi=(2.0, 2.0, 2.0))
    cc = cell_centers(b)
    assert cc.shape == (2, 2, 2, 3)
    np.testing.assert_allclose(cc[0, 0, 0], [0.5, 0.5, 0.5])
    np.testing.assert_allclose(cc[1, 1, 1], [1.5, 1.5, 1.5])


def test_cell_volumes_unit_cells():
    b = cart_block((4, 4, 4), hi=(3.0, 3.0, 3.0))
    vols = cell_volumes(b)
    np.testing.assert_allclose(vols, 1.0, atol=1e-12)


def test_cell_volumes_sum_warped_box():
    """Total volume of a warped unit box is preserved to second order."""
    coords = warp_lattice(
        cartesian_lattice((0, 0, 0), (1, 1, 1), (12, 12, 12)), amplitude=0.02
    )
    b = StructuredBlock(coords)
    total = cell_volumes(b).sum()
    assert total == pytest.approx(1.0, rel=0.05)


def test_cell_volumes_scale_with_spacing():
    b1 = cart_block((3, 3, 3), hi=(1, 1, 1))
    b2 = cart_block((3, 3, 3), hi=(2, 2, 2))
    v1 = cell_volumes(b1).sum()
    v2 = cell_volumes(b2).sum()
    assert v2 == pytest.approx(8 * v1)
