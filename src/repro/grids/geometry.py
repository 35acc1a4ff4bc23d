"""Differential geometry on curvilinear blocks.

Gradients of point-centered fields on a body-fitted grid require the
chain rule through the grid mapping: with computational coordinates
``(xi, eta, zeta)`` on the lattice and physical coordinates
``x(xi, eta, zeta)``, the physical gradient of a field ``f`` is

    df/dx = (dx/dxi)^{-T} . df/dxi

evaluated per point.  These routines are fully vectorized over the
block (the guides' "vectorize the loops" rule); the per-point 3x3
inverse is done with a closed-form adjugate rather than
``np.linalg.inv`` in a loop.
"""

from __future__ import annotations

import numpy as np

from .block import StructuredBlock

__all__ = ["velocity_gradient_tensor", "cell_volumes", "cell_centers"]

#: Flat ``(row, col)`` indices into a 3x3 matrix stored as 9 rows: entry
#: ``k`` of the adjugate is ``m[_ADJ_A[k]] * m[_ADJ_B[k]] - m[_ADJ_C[k]]
#: * m[_ADJ_D[k]]``, the closed-form cofactors in row-major order.
_ADJ_A = np.array([4, 2, 1, 5, 0, 2, 3, 1, 0])
_ADJ_B = np.array([8, 7, 5, 6, 8, 3, 7, 6, 4])
_ADJ_C = np.array([5, 1, 2, 3, 2, 0, 4, 0, 1])
_ADJ_D = np.array([7, 8, 4, 8, 6, 5, 6, 7, 3])

#: Determinants smaller than this in magnitude are clamped to it.
_DET_EPS = 1e-300


def velocity_gradient_tensor(
    block: StructuredBlock, name: str = "velocity"
) -> np.ndarray:
    """Velocity gradient ``G[..., c, d] = d u_c / d x_d`` per point.

    This is the tensor the λ2 criterion decomposes into its symmetric
    part ``S`` and antisymmetric part ``Q`` (paper §6.3).

    One pass over contiguous ``(component, xi-axis, point)`` rows:
    coordinates and velocity are differenced together with
    ``np.gradient``'s arithmetic (central ``(f[2:] - f[:-2]) / 2.0``
    inside, one-sided on the boundary layers), the Jacobian is inverted
    through its adjugate, and the chain rule ``du/dxi . dxi/dx`` is
    summed in index order from zero, as ``np.einsum`` would.  Points
    whose Jacobian determinant is below ``_DET_EPS`` in magnitude divide
    by ``±_DET_EPS`` instead; downstream thresholding treats the huge
    values there as non-vortical.
    """
    u = block.field(name)
    if u.ndim != 4:
        raise ValueError(f"field {name!r} is not a vector")
    shape = u.shape[:3]
    if min(shape) < 2:
        raise ValueError(f"block shape {shape} needs at least 2 points per axis")
    f = np.empty((6,) + shape)
    f[:3] = np.moveaxis(block.coords, -1, 0)
    f[3:] = np.moveaxis(u, -1, 0)
    d = np.empty((6, 3) + shape)
    for axis in range(3):
        lo = (slice(None),) * (axis + 1)
        out = d[:, axis]
        out[lo + (slice(1, -1),)] = (
            f[lo + (slice(2, None),)] - f[lo + (slice(None, -2),)]
        ) / 2.0
        out[lo + (0,)] = f[lo + (1,)] - f[lo + (0,)]
        out[lo + (-1,)] = f[lo + (-1,)] - f[lo + (-2,)]
    d = d.reshape(6, 3, -1)
    m = d[:3].reshape(9, -1)  # m[3 * c + a] = dx_c / dxi_a
    adj = m[_ADJ_A] * m[_ADJ_B] - m[_ADJ_C] * m[_ADJ_D]
    # The textbook cofactor expansion, term for term: reusing the
    # middle cofactor ``adj[3]`` would flip the sign of a zero.
    det = m[0] * adj[0] - m[1] * (m[3] * m[8] - m[5] * m[6]) + m[2] * adj[6]
    eps = _DET_EPS
    safe = np.where(np.abs(det) < eps, np.copysign(eps, det) + (det == 0) * eps, det)
    inv = (adj / safe).reshape(3, 3, -1)  # inv[a, d] = dxi_a / dx_d
    terms = d[3:, :, None] * inv  # terms[c, a, d] = du_c/dxi_a * dxi_a/dx_d
    g = terms[:, 0] + terms[:, 1]
    g += terms[:, 2]
    g += 0.0  # a sum that starts from zero never ends on -0.0
    return np.ascontiguousarray(np.moveaxis(g, -1, 0)).reshape(shape + (3, 3))


def cell_centers(block: StructuredBlock) -> np.ndarray:
    """Average of the 8 corner points per cell, shape ``(ci,cj,ck,3)``."""
    c = block.coords
    return 0.125 * (
        c[:-1, :-1, :-1]
        + c[1:, :-1, :-1]
        + c[1:, 1:, :-1]
        + c[:-1, 1:, :-1]
        + c[:-1, :-1, 1:]
        + c[1:, :-1, 1:]
        + c[1:, 1:, 1:]
        + c[:-1, 1:, 1:]
    )


def cell_volumes(block: StructuredBlock) -> np.ndarray:
    """Approximate hexahedral cell volumes, shape ``(ci,cj,ck)``.

    Uses the scalar triple product of the cell's mid-face diagonals
    (exact for parallelepipeds, standard second-order approximation for
    general hexahedra).
    """
    c = block.coords
    # Edge vectors between opposite face centroids.
    fi0 = 0.25 * (c[:-1, :-1, :-1] + c[:-1, 1:, :-1] + c[:-1, :-1, 1:] + c[:-1, 1:, 1:])
    fi1 = 0.25 * (c[1:, :-1, :-1] + c[1:, 1:, :-1] + c[1:, :-1, 1:] + c[1:, 1:, 1:])
    fj0 = 0.25 * (c[:-1, :-1, :-1] + c[1:, :-1, :-1] + c[:-1, :-1, 1:] + c[1:, :-1, 1:])
    fj1 = 0.25 * (c[:-1, 1:, :-1] + c[1:, 1:, :-1] + c[:-1, 1:, 1:] + c[1:, 1:, 1:])
    fk0 = 0.25 * (c[:-1, :-1, :-1] + c[1:, :-1, :-1] + c[:-1, 1:, :-1] + c[1:, 1:, :-1])
    fk1 = 0.25 * (c[:-1, :-1, 1:] + c[1:, :-1, 1:] + c[:-1, 1:, 1:] + c[1:, 1:, 1:])
    a = fi1 - fi0
    b = fj1 - fj0
    d = fk1 - fk0
    return np.abs(np.einsum("...i,...i->...", a, np.cross(b, d)))
