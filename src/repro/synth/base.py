"""Shared machinery for synthetic paper-scale datasets.

Each synthetic dataset has two resolutions per block:

* the **actual** shape — small arrays that are really allocated, so
  algorithms do real numerics on a laptop; and
* the **modeled** shape — the paper-scale resolution used by the
  simulated runtime's cost model and by on-disk-size accounting.

:func:`fit_modeled_shapes` scales the actual shapes uniformly until the
dataset's modeled size on disk matches the paper's Table 1 value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..grids.block import BlockHandle, StructuredBlock
from ..grids.multiblock import MultiBlockDataset
from .fields import AnalyticField

__all__ = [
    "BYTES_PER_POINT",
    "DatasetSpec",
    "SyntheticDataset",
    "fit_modeled_shapes",
]

#: On-disk record per grid point: coords(3) + velocity(3) + pressure(1),
#: single precision (the common CFD export format of the era).
BYTES_PER_POINT = 7 * 4


def _points(shape: Sequence[int]) -> int:
    ni, nj, nk = shape
    return ni * nj * nk


def fit_modeled_shapes(
    actual_shapes: Sequence[tuple[int, int, int]],
    target_bytes: int,
    n_timesteps: int,
    bytes_per_point: int = BYTES_PER_POINT,
) -> list[tuple[int, int, int]]:
    """Scale shapes uniformly so the whole series totals ``target_bytes``.

    Finds a per-axis factor ``s`` by bisection such that
    ``sum(points(round(shape * s))) * n_timesteps * bytes_per_point``
    is as close as possible to ``target_bytes``.
    """
    if target_bytes <= 0:
        raise ValueError(f"target_bytes must be positive, got {target_bytes}")
    target_points = target_bytes / (n_timesteps * bytes_per_point)

    def total(s: float) -> float:
        return float(
            sum(
                _points([max(2, round(d * s)) for d in shape])
                for shape in actual_shapes
            )
        )

    lo, hi = 1e-3, 1.0
    while total(hi) < target_points:
        hi *= 2.0
        if hi > 1e6:  # pragma: no cover - absurd target
            raise ValueError("cannot fit modeled shapes to target size")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if total(mid) < target_points:
            lo = mid
        else:
            hi = mid
    # total() is a step function of s; the bracket ends straddle the
    # target, so pick whichever side rounds closer rather than the
    # midpoint (which can land a full rounding jump away on tiny dims).
    s = min((lo, hi), key=lambda cand: abs(total(cand) - target_points))
    return [
        tuple(max(2, round(d * s)) for d in shape)  # type: ignore[misc]
        for shape in actual_shapes
    ]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a synthetic multi-block time series."""

    name: str
    n_timesteps: int
    n_blocks: int
    dt: float
    actual_shapes: tuple[tuple[int, int, int], ...]
    modeled_shapes: tuple[tuple[int, int, int], ...]
    bytes_per_point: int = BYTES_PER_POINT

    def __post_init__(self) -> None:
        if len(self.actual_shapes) != self.n_blocks:
            raise ValueError("one actual shape per block required")
        if len(self.modeled_shapes) != self.n_blocks:
            raise ValueError("one modeled shape per block required")

    @property
    def times(self) -> list[float]:
        return [i * self.dt for i in range(self.n_timesteps)]

    @property
    def modeled_points_per_step(self) -> int:
        return sum(_points(s) for s in self.modeled_shapes)

    @property
    def modeled_block_bytes(self) -> list[int]:
        return [_points(s) * self.bytes_per_point for s in self.modeled_shapes]

    @property
    def size_on_disk(self) -> int:
        """Modeled total size of the series (paper Table 1's column)."""
        return self.modeled_points_per_step * self.bytes_per_point_total

    @property
    def bytes_per_point_total(self) -> int:
        return self.n_timesteps * self.bytes_per_point

    def block_bytes(self, block_id: int) -> int:
        return self.modeled_block_bytes[block_id]


class SyntheticDataset:
    """Callable dataset: lattices fixed per block, fields evaluated per time.

    Parameters
    ----------
    spec:
        The static description (shapes, steps, sizes).
    lattices:
        One coordinate array per block (actual resolution).
    flow:
        The analytic field supplying velocity and pressure.
    """

    def __init__(
        self,
        spec: DatasetSpec,
        lattices: Sequence[np.ndarray],
        flow: AnalyticField,
    ):
        if len(lattices) != spec.n_blocks:
            raise ValueError(
                f"spec declares {spec.n_blocks} blocks, got {len(lattices)} lattices"
            )
        for bid, (lat, shape) in enumerate(zip(lattices, spec.actual_shapes)):
            if lat.shape[:3] != tuple(shape):
                raise ValueError(
                    f"block {bid}: lattice shape {lat.shape[:3]} != spec {shape}"
                )
        self.spec = spec
        self.lattices = [np.asarray(l, dtype=np.float64) for l in lattices]
        self.flow = flow
        self._handles_cache: list[BlockHandle] | None = None

    #: the fields :meth:`build_block` evaluates, with their component counts.
    field_components = {"velocity": 3, "pressure": 1}

    # ---------------------------------------------------------- building
    def build_block(self, time_index: int, block_id: int) -> StructuredBlock:
        if not 0 <= time_index < self.spec.n_timesteps:
            raise IndexError(f"time index {time_index} out of range")
        if not 0 <= block_id < self.spec.n_blocks:
            raise IndexError(f"block id {block_id} out of range")
        t = time_index * self.spec.dt
        coords = self.lattices[block_id]
        return StructuredBlock(
            coords,
            {
                "velocity": self.flow.velocity(coords, t),
                "pressure": self.flow.pressure(coords, t),
            },
            block_id=block_id,
            time_index=time_index,
        )

    def level(self, time_index: int) -> MultiBlockDataset:
        blocks = [
            self.build_block(time_index, b) for b in range(self.spec.n_blocks)
        ]
        return MultiBlockDataset(
            blocks, name=self.spec.name, time=time_index * self.spec.dt
        )

    # ----------------------------------------------------------- handles
    def handles(self, time_index: int = 0) -> list[BlockHandle]:
        """Block handles for one time level (bounds are time-invariant)."""
        if self._handles_cache is None:
            self._handles_cache = []
            for bid, lat in enumerate(self.lattices):
                pts = lat.reshape(-1, 3)
                self._handles_cache.append(
                    BlockHandle(
                        dataset=self.spec.name,
                        block_id=bid,
                        time_index=0,
                        shape=tuple(lat.shape[:3]),
                        modeled_shape=tuple(self.spec.modeled_shapes[bid]),
                        bounds_min=tuple(pts.min(axis=0)),
                        bounds_max=tuple(pts.max(axis=0)),
                    )
                )
        if time_index == 0:
            return list(self._handles_cache)
        return [
            BlockHandle(
                dataset=h.dataset,
                block_id=h.block_id,
                time_index=time_index,
                shape=h.shape,
                modeled_shape=h.modeled_shape,
                bounds_min=h.bounds_min,
                bounds_max=h.bounds_max,
            )
            for h in self._handles_cache
        ]
