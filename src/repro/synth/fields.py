"""Analytic unsteady flow fields and curvilinear grid factories.

The paper's datasets are proprietary simulation results; we substitute
analytic incompressible-like flows with the structure the test commands
probe: coherent vortices (for λ2), smooth scalar fields with closed
isosurfaces (for isosurface extraction) and swirl that advects particles
across block boundaries (for pathlines).  All fields are deterministic
functions of position and time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalyticField",
    "ABCFlowField",
    "SwirlTumbleField",
    "CounterRotatingFanField",
    "cartesian_lattice",
    "warp_lattice",
    "annular_lattice",
]


class AnalyticField:
    """Interface: velocity and pressure as functions of ``(points, t)``.

    ``points`` has shape ``(..., 3)``; velocity returns ``(..., 3)`` and
    pressure ``(...)``.
    """

    def velocity(self, points: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def pressure(self, points: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ABCFlowField(AnalyticField):
    """Arnold-Beltrami-Childress flow: fully 3-D, strongly vortical."""

    a: float = 1.0
    b: float = np.sqrt(2.0 / 3.0)
    c: float = np.sqrt(1.0 / 3.0)
    drift: float = 0.2  # slow phase drift makes the field unsteady

    def velocity(self, points: np.ndarray, t: float) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        phase = self.drift * t
        u = self.a * np.sin(z + phase) + self.c * np.cos(y + phase)
        v = self.b * np.sin(x + phase) + self.a * np.cos(z + phase)
        w = self.c * np.sin(y + phase) + self.b * np.cos(x + phase)
        return np.stack([u, v, w], axis=-1)

    def pressure(self, points: np.ndarray, t: float) -> np.ndarray:
        # Bernoulli-style surrogate: ABC flow has |u| varying in space.
        u = self.velocity(points, t)
        return -0.5 * np.sum(u * u, axis=-1)


@dataclass(frozen=True)
class SwirlTumbleField(AnalyticField):
    """Intake-stroke-like swirl/tumble flow for the Engine dataset.

    A swirling motion about the cylinder (z) axis superposed with a
    tumble vortex about the x axis and an oscillating axial intake jet —
    qualitatively the flow of a 4-valve combustion engine during intake
    (the paper's Engine dataset [19]).
    """

    swirl: float = 1.2
    tumble: float = 0.8
    jet: float = 1.5
    period: float = 2.0

    def velocity(self, points: np.ndarray, t: float) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        phase = 2.0 * np.pi * t / self.period
        pulse = 0.5 * (1.0 + np.cos(phase))
        # Solid-body-like swirl about z with radial falloff.
        r2 = x * x + y * y
        sw = self.swirl * np.exp(-r2)
        u = -sw * y
        v = sw * x
        # Tumble about the x axis, its center oscillating along z.
        zc = 0.3 * np.sin(phase)
        v = v + self.tumble * (z - zc)
        w = -self.tumble * y
        # Pulsating intake jet through the "valves" near the top.
        jet = self.jet * pulse * np.exp(-4.0 * ((x - 0.4) ** 2 + y * y))
        jet = jet + self.jet * pulse * np.exp(-4.0 * ((x + 0.4) ** 2 + y * y))
        w = w - jet
        return np.stack([u, v, w], axis=-1)

    def pressure(self, points: np.ndarray, t: float) -> np.ndarray:
        u = self.velocity(points, t)
        p = np.asarray(points, dtype=np.float64)
        return -0.5 * np.sum(u * u, axis=-1) + 0.1 * p[..., 2]


@dataclass(frozen=True)
class CounterRotatingFanField(AnalyticField):
    """Two counter-rotating fan stages for the Propfan dataset.

    Swirl direction flips across the inter-stage plane ``z = z_split``;
    blade-passage wakes rotate with each stage, producing tip vortices
    whose position depends on time (the paper's Propfan dataset).
    """

    omega1: float = 2.0
    omega2: float = -1.6
    axial: float = 1.0
    z_split: float = 0.0
    n_blades: int = 6

    def _stage(self, z: np.ndarray) -> np.ndarray:
        # Smooth blend between the two stages' rotation rates.
        s = 0.5 * (1.0 + np.tanh(8.0 * (z - self.z_split)))
        return (1.0 - s) * self.omega1 + s * self.omega2

    def velocity(self, points: np.ndarray, t: float) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        omega = self._stage(z)
        theta = np.arctan2(y, x)
        r = np.sqrt(x * x + y * y)
        # Blade-passage wakes: rotating azimuthal modulation.
        wake1 = 0.25 * np.cos(self.n_blades * (theta - self.omega1 * t))
        wake2 = 0.25 * np.cos(self.n_blades * (theta - self.omega2 * t))
        s = 0.5 * (1.0 + np.tanh(8.0 * (z - self.z_split)))
        wake = (1.0 - s) * wake1 + s * wake2
        u_theta = omega * r * (1.0 + wake)
        u = -u_theta * np.sin(theta)
        v = u_theta * np.cos(theta)
        w = self.axial * (1.0 + 0.3 * wake) + 0.2 * np.sin(r * np.pi)
        return np.stack([u, v, w], axis=-1)

    def pressure(self, points: np.ndarray, t: float) -> np.ndarray:
        u = self.velocity(points, t)
        return -0.5 * np.sum(u * u, axis=-1)


# ------------------------------------------------------------ lattices


def cartesian_lattice(
    bounds_min: tuple[float, float, float],
    bounds_max: tuple[float, float, float],
    shape: tuple[int, int, int],
) -> np.ndarray:
    """Regular lattice of points, shape ``(ni, nj, nk, 3)``."""
    axes = [
        np.linspace(lo, hi, n)
        for lo, hi, n in zip(bounds_min, bounds_max, shape)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1)


def warp_lattice(
    coords: np.ndarray, amplitude: float = 0.05, frequency: float = 2.0
) -> np.ndarray:
    """Smoothly deform a lattice to make it genuinely curvilinear.

    The warp is a bounded sinusoidal displacement; with
    ``amplitude * frequency`` small relative to the cell size the
    mapping stays bijective (no inverted cells).
    """
    c = np.asarray(coords, dtype=np.float64)
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    out = c.copy()
    out[..., 0] += amplitude * np.sin(frequency * y) * np.cos(frequency * z)
    out[..., 1] += amplitude * np.sin(frequency * z) * np.cos(frequency * x)
    out[..., 2] += amplitude * np.sin(frequency * x) * np.cos(frequency * y)
    return out


def annular_lattice(
    r_range: tuple[float, float],
    theta_range: tuple[float, float],
    z_range: tuple[float, float],
    shape: tuple[int, int, int],
) -> np.ndarray:
    """Body-fitted annulus sector: lattice axes are (r, theta, z)."""
    r = np.linspace(*r_range, shape[0])
    th = np.linspace(*theta_range, shape[1])
    z = np.linspace(*z_range, shape[2])
    rr, tt, zz = np.meshgrid(r, th, z, indexing="ij")
    return np.stack([rr * np.cos(tt), rr * np.sin(tt), zz], axis=-1)
