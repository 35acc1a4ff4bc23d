"""Reference chain for the velocity-gradient tensor (test oracle).

The step-by-step helpers :func:`repro.grids.geometry.velocity_gradient_tensor`
used before it became one fused pass, kept verbatim: ``np.gradient``
differences, the Jacobian, a closed-form adjugate inverse and an
``np.einsum`` chain rule.  The fused kernel must reproduce these bits.
"""

from __future__ import annotations

import numpy as np

from repro.grids.block import StructuredBlock


def computational_derivatives(data: np.ndarray) -> np.ndarray:
    """Central differences of ``data`` along the three lattice axes.

    ``data`` has shape ``(ni, nj, nk)`` or ``(ni, nj, nk, m)``.  Returns
    shape ``data.shape + (3,)`` with derivative index last: result
    ``[..., a]`` is d(data)/d(axis a) with unit lattice spacing.
    One-sided differences are used on the boundary layers (matching
    ``np.gradient``).
    """
    data = np.asarray(data, dtype=np.float64)
    grads = np.gradient(data, axis=(0, 1, 2), edge_order=1)
    return np.stack(grads, axis=-1)


def jacobian(block: StructuredBlock) -> np.ndarray:
    """Jacobian ``J[..., c, a] = d x_c / d xi_a`` per point, shape (ni,nj,nk,3,3)."""
    return computational_derivatives(block.coords)


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinant of stacked 3x3 matrices without LAPACK round-trips."""
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def inverse_jacobian(jac: np.ndarray, eps: float = 1e-300) -> np.ndarray:
    """Per-point inverse of stacked 3x3 Jacobians via the adjugate."""
    det = _det3(jac)
    # Guard degenerate cells; the caller sees inf/large values there,
    # which downstream thresholding treats as non-vortical/outside.
    safe = np.where(np.abs(det) < eps, np.copysign(eps, det) + (det == 0) * eps, det)
    inv = np.empty_like(jac)
    a = jac
    inv[..., 0, 0] = a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1]
    inv[..., 0, 1] = a[..., 0, 2] * a[..., 2, 1] - a[..., 0, 1] * a[..., 2, 2]
    inv[..., 0, 2] = a[..., 0, 1] * a[..., 1, 2] - a[..., 0, 2] * a[..., 1, 1]
    inv[..., 1, 0] = a[..., 1, 2] * a[..., 2, 0] - a[..., 1, 0] * a[..., 2, 2]
    inv[..., 1, 1] = a[..., 0, 0] * a[..., 2, 2] - a[..., 0, 2] * a[..., 2, 0]
    inv[..., 1, 2] = a[..., 0, 2] * a[..., 1, 0] - a[..., 0, 0] * a[..., 1, 2]
    inv[..., 2, 0] = a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]
    inv[..., 2, 1] = a[..., 0, 1] * a[..., 2, 0] - a[..., 0, 0] * a[..., 2, 1]
    inv[..., 2, 2] = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    inv /= safe[..., None, None]
    return inv


def physical_gradient(block: StructuredBlock, name: str) -> np.ndarray:
    """Physical-space gradient of a scalar field, shape ``(ni,nj,nk,3)``.

    ``result[..., c] = df/dx_c``.
    """
    f = block.field(name)
    if f.ndim != 3:
        raise ValueError(f"field {name!r} is not a scalar")
    df_dxi = computational_derivatives(f)  # (ni,nj,nk,3)
    jinv = inverse_jacobian(jacobian(block))  # (ni,nj,nk,3,3): dxi_a/dx_c
    # df/dx_c = sum_a df/dxi_a * dxi_a/dx_c
    return np.einsum("...a,...ac->...c", df_dxi, jinv)


def velocity_gradient_tensor(
    block: StructuredBlock, name: str = "velocity"
) -> np.ndarray:
    """Velocity gradient ``G[..., c, d] = d u_c / d x_d`` per point.

    This is the tensor the λ2 criterion decomposes into its symmetric
    part ``S`` and antisymmetric part ``Q`` (paper §6.3).
    """
    u = block.field(name)
    if u.ndim != 4:
        raise ValueError(f"field {name!r} is not a vector")
    du_dxi = computational_derivatives(u)  # (ni,nj,nk,3comp,3xi)
    jinv = inverse_jacobian(jacobian(block))  # (ni,nj,nk,3xi,3x)
    return np.einsum("...ca,...ad->...cd", du_dxi, jinv)
