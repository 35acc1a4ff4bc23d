"""Numerical-verification studies: do the kernels converge at the
expected order?

Not a paper figure — the credibility layer beneath all of them.  Each
study compares a computed quantity against a closed-form answer over a
resolution (or tolerance) ladder and estimates the observed convergence
order from consecutive errors:

* isosurface area of a sphere → exact ``4 π r²`` (linear interpolation
  on tetrahedra ⇒ 2nd order in ``h``),
* λ2 of solid-body rotation on a *warped* grid → exact ``−ω²``
  (central differences ⇒ 2nd order),
* pathline orbit closure in a rotation field → error shrinks with the
  integrator tolerance.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.isosurface import extract_block_isosurface
from ..algorithms.lambda2 import lambda2_field
from ..algorithms.pathlines import trace_pathlines
from ..grids.block import StructuredBlock
from ..grids.multiblock import MultiBlockDataset, TimeSeries
from ..synth.fields import cartesian_lattice, warp_lattice
from .experiments import ExperimentResult

__all__ = [
    "observed_orders",
    "isosurface_area_convergence",
    "lambda2_convergence",
    "pathline_tolerance_study",
]


def observed_orders(hs: list[float], errors: list[float]) -> list[float]:
    """Pairwise convergence order estimates log(e1/e2)/log(h1/h2)."""
    orders = []
    for (h1, e1), (h2, e2) in zip(zip(hs, errors), zip(hs[1:], errors[1:])):
        if e1 <= 0 or e2 <= 0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log(e1 / e2) / np.log(h1 / h2)))
    return orders


def isosurface_area_convergence(
    resolutions: tuple[int, ...] = (9, 17, 33), radius: float = 0.6
) -> ExperimentResult:
    """Sphere-area error of the tetrahedral isosurface vs resolution."""
    result = ExperimentResult(
        experiment_id="convergence-iso-area",
        title=f"Isosurface area of the r = {radius} sphere",
        columns=["n", "h", "area", "rel_error", "observed_order"],
        notes="Exact area 4 pi r^2; linear edge interpolation is 2nd order.",
    )
    exact = 4.0 * np.pi * radius**2
    hs, errors = [], []
    for n in resolutions:
        block = StructuredBlock(cartesian_lattice((-1, -1, -1), (1, 1, 1), (n, n, n)))
        block.set_field("r", np.linalg.norm(block.coords, axis=-1))
        mesh = extract_block_isosurface(block, "r", radius)
        error = abs(mesh.area() - exact) / exact
        hs.append(2.0 / (n - 1))
        errors.append(error)
        result.rows.append(
            {"n": n, "h": hs[-1], "area": mesh.area(), "rel_error": error,
             "observed_order": float("nan")}
        )
    for row, order in zip(result.rows[1:], observed_orders(hs, errors)):
        row["observed_order"] = order
    return result


def lambda2_convergence(
    resolutions: tuple[int, ...] = (9, 17, 33),
) -> ExperimentResult:
    """Velocity-gradient / λ2 truncation error on a fixed warped grid.

    Velocity is the (nonlinear, divergence-free) Taylor-Green-like field
    ``u = (sin πy cos πz, sin πz cos πx, sin πx cos πy)``; its gradient
    tensor — and hence λ2 — is known in closed form, so refining the
    *same* smooth curvilinear mapping must show second-order decay of
    the interior error.
    """
    from ..algorithms.lambda2 import lambda2_points
    from ..grids.geometry import velocity_gradient_tensor

    result = ExperimentResult(
        experiment_id="convergence-lambda2",
        title="λ2 of a nonlinear analytic field on a warped grid",
        columns=["n", "h", "rms_interior_error", "observed_order"],
        notes="Central differences through the curvilinear mapping: 2nd order.",
    )

    def velocity(p):
        x, y, z = np.pi * p[..., 0], np.pi * p[..., 1], np.pi * p[..., 2]
        return np.stack(
            [np.sin(y) * np.cos(z), np.sin(z) * np.cos(x), np.sin(x) * np.cos(y)],
            axis=-1,
        )

    def exact_gradient(p):
        x, y, z = np.pi * p[..., 0], np.pi * p[..., 1], np.pi * p[..., 2]
        zero = np.zeros_like(x)
        g = np.stack(
            [
                np.stack([zero, np.pi * np.cos(y) * np.cos(z),
                          -np.pi * np.sin(y) * np.sin(z)], axis=-1),
                np.stack([-np.pi * np.sin(x) * np.sin(z), zero,
                          np.pi * np.cos(z) * np.cos(x)], axis=-1),
                np.stack([np.pi * np.cos(x) * np.cos(y),
                          -np.pi * np.sin(x) * np.sin(y), zero], axis=-1),
            ],
            axis=-2,
        )
        return g

    hs, errors = [], []
    for n in resolutions:
        coords = cartesian_lattice((-1, -1, -1), (1, 1, 1), (n, n, n))
        # The *same* smooth mapping at every level (fixed amplitude).
        coords = warp_lattice(coords, amplitude=0.04, frequency=2.0)
        block = StructuredBlock(coords)
        block.set_field("velocity", velocity(block.coords))
        lam = lambda2_points(velocity_gradient_tensor(block))
        lam_exact = lambda2_points(exact_gradient(block.coords))
        diff = (lam - lam_exact)[2:-2, 2:-2, 2:-2]
        error = float(np.sqrt(np.mean(diff**2)))
        hs.append(2.0 / (n - 1))
        errors.append(error)
        result.rows.append(
            {"n": n, "h": hs[-1], "rms_interior_error": error,
             "observed_order": float("nan")}
        )
    for row, order in zip(result.rows[1:], observed_orders(hs, errors)):
        row["observed_order"] = order
    return result


def pathline_tolerance_study(
    rtols: tuple[float, ...] = (1e-2, 1e-4, 1e-6), omega: float = 1.0
) -> ExperimentResult:
    """Orbit-closure error of the adaptive tracer vs its tolerance."""
    result = ExperimentResult(
        experiment_id="convergence-pathline",
        title="Pathline orbit closure after one revolution",
        columns=["rtol", "closure_error", "n_points"],
        notes="Tighter tolerances must strictly reduce the closure error.",
    )

    def level(i):
        block = StructuredBlock(
            cartesian_lattice((-2, -2, -1), (2, 2, 1), (17, 17, 5))
        )
        x, y = block.coords[..., 0], block.coords[..., 1]
        block.set_field(
            "velocity",
            np.stack([-omega * y, omega * x, np.zeros_like(x)], axis=-1),
        )
        return MultiBlockDataset([block], time=float(i) * 10.0)

    series = TimeSeries([0.0, 10.0], level)
    period = 2.0 * np.pi / omega
    seed = np.array([1.0, 0.0, 0.0])
    for rtol in rtols:
        (path,) = trace_pathlines(
            series, seed, 0.0, period, rtol=rtol, max_steps=20000
        )
        error = float(np.linalg.norm(path.points[-1] - seed))
        result.rows.append(
            {"rtol": rtol, "closure_error": error, "n_points": path.n_points}
        )
    return result
