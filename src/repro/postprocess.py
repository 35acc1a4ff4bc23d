"""Direct (framework-free) post-processing API.

One-call wrappers over the algorithm layer for users who have a
:class:`~repro.grids.multiblock.MultiBlockDataset` /
:class:`~repro.grids.multiblock.TimeSeries` in memory and just want
geometry — no simulated cluster, no DMS, no command protocol.  The
framework path (:class:`~repro.core.session.ViracochaSession`) produces
byte-identical geometry; these helpers exist because a post-processing
*library* should also work as a library.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algorithms.contours import cutplane_contours
from .algorithms.criteria import extract_q_vortices
from .algorithms.cutplane import extract_cutplane
from .algorithms.isosurface import extract_isosurface
from .algorithms.lambda2 import extract_vortices, lambda2_field
from .algorithms.pathlines import Pathline, trace_pathlines
from .algorithms.streaklines import Streakline, trace_streakline
from .algorithms.streamlines import trace_streamlines
from .grids.multiblock import MultiBlockDataset, TimeSeries
from .viz.mesh import TriangleMesh
from .viz.polyline import PolylineSet

__all__ = [
    "isosurface",
    "isosurface_series",
    "vortex_regions",
    "q_vortex_regions",
    "cut_plane",
    "cut_plane_contours",
    "pathlines",
    "streamlines",
    "streakline",
    "add_lambda2_field",
]


def isosurface(
    dataset: MultiBlockDataset,
    scalar: str,
    isovalue: float,
    attributes: Sequence[str] | None = None,
) -> TriangleMesh:
    """Isosurface of one time level across all blocks."""
    return extract_isosurface(
        dataset, scalar, isovalue, attributes=list(attributes or [])
    )


def isosurface_series(
    series: TimeSeries,
    scalar: str,
    isovalue: float,
    time_indices: Sequence[int] | None = None,
) -> list[TriangleMesh]:
    """One isosurface per time level (feature animation)."""
    indices = list(time_indices) if time_indices is not None else range(len(series))
    return [extract_isosurface(series.level(i), scalar, isovalue) for i in indices]


def q_vortex_regions(
    dataset: MultiBlockDataset,
    threshold: float = 0.0,
    velocity: str = "velocity",
) -> TriangleMesh:
    """Vortex surfaces by the Q criterion (Q = threshold, Q > 0 inside)."""
    return extract_q_vortices(dataset, threshold=threshold, velocity=velocity)


def vortex_regions(
    dataset: MultiBlockDataset,
    threshold: float = 0.0,
    velocity: str = "velocity",
) -> TriangleMesh:
    """λ2 vortex boundary surfaces at ``λ2 = threshold`` (§6.3)."""
    return extract_vortices(dataset, threshold=threshold, velocity=velocity)


def cut_plane(
    dataset: MultiBlockDataset,
    normal: Sequence[float],
    offset: float = 0.0,
    attributes: Sequence[str] | None = None,
) -> TriangleMesh:
    """Plane cut ``normal · x = offset`` with optional field coloring."""
    return extract_cutplane(
        dataset, np.asarray(normal, dtype=float), offset, list(attributes or [])
    )


def cut_plane_contours(
    dataset: MultiBlockDataset,
    normal: Sequence[float],
    offset: float,
    scalar: str,
    values: Sequence[float],
) -> PolylineSet:
    """Contour lines of ``scalar`` on the plane ``normal · x = offset``."""
    return cutplane_contours(
        dataset, np.asarray(normal, dtype=float), offset, scalar, list(values)
    )


def add_lambda2_field(
    dataset: MultiBlockDataset, velocity: str = "velocity", name: str = "lambda2"
) -> MultiBlockDataset:
    """Attach the λ2 scalar field to every block (in place); returns it."""
    for block in dataset:
        block.set_field(name, lambda2_field(block, velocity))
    return dataset


def pathlines(
    series: TimeSeries,
    seeds: Sequence[Sequence[float]],
    t_start: float | None = None,
    t_end: float | None = None,
    as_polylines: bool = False,
    **tracer_kwargs,
) -> list[Pathline] | PolylineSet:
    """Integrate one pathline per seed through the unsteady flow."""
    paths = trace_pathlines(
        series, np.asarray(seeds, dtype=float), t_start, t_end, **tracer_kwargs
    )
    if as_polylines:
        return PolylineSet.from_pathlines(paths)
    return paths


def streamlines(
    dataset: MultiBlockDataset,
    seeds: Sequence[Sequence[float]],
    duration: float = 1.0,
    as_polylines: bool = False,
    **tracer_kwargs,
) -> list[Pathline] | PolylineSet:
    """Steady-state traces on one frozen time level."""
    paths = trace_streamlines(
        dataset, np.asarray(seeds, dtype=float), duration, **tracer_kwargs
    )
    if as_polylines:
        return PolylineSet.from_pathlines(paths)
    return paths


def streakline(
    series: TimeSeries,
    seed: Sequence[float],
    t_start: float | None = None,
    t_observe: float | None = None,
    n_particles: int = 20,
    **tracer_kwargs,
) -> Streakline:
    """A dye filament released continuously from ``seed`` (§9)."""
    return trace_streakline(
        series,
        np.asarray(seed, dtype=float),
        t_start,
        t_observe,
        n_particles,
        **tracer_kwargs,
    )
