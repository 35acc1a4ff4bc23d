"""Streamlines: steady-state particle traces on one frozen time level.

Listed under the paper's future work ("optimization of particle tracing
algorithms, e.g. pathlines as well as streaklines"); implemented here as
the steady companion of :mod:`.pathlines`, reusing the batched RK45
tracer with the velocity field frozen at a single time level and arc
parameterized by pseudo-time.
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from ..grids.block import BlockHandle
from ..grids.multiblock import MultiBlockDataset
from .pathlines import BatchPathlineTracer, BlockRequest, Pathline

__all__ = ["BatchStreamlineTracer", "trace_streamlines"]


class BatchStreamlineTracer(BatchPathlineTracer):
    """A pathline tracer pinned to one time level.

    All seeds advance together through the vectorized RK45 stages and
    each frozen-level block is demanded once per super-step.
    """

    def __init__(
        self,
        handles: Sequence[BlockHandle],
        level_index: int = 0,
        duration: float = 1.0,
        **kwargs,
    ):
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        # A single synthetic "time axis" spanning the integration length;
        # both bracket levels collapse onto the frozen level.
        super().__init__(handles, times=[0.0, duration], **kwargs)
        self.level_index = level_index

    def _map_request(self, time_index: int, block_id: int):
        # Both pseudo-time levels map to the same frozen dataset level.
        return BlockRequest(self.level_index, block_id)

    def trace_steady_many(
        self, seeds: np.ndarray, duration: float | None = None
    ) -> Generator[BlockRequest, object, list[Pathline]]:
        return (yield from self.trace_many(seeds, 0.0, duration))


def trace_streamlines(
    dataset: MultiBlockDataset,
    seeds: np.ndarray,
    duration: float = 1.0,
    **tracer_kwargs,
) -> list[Pathline]:
    """Batched convenience wrapper: all seeds traced in one pass."""
    tracer = BatchStreamlineTracer(
        dataset.handles(), duration=duration, **tracer_kwargs
    )
    gen = tracer.trace_steady_many(seeds, duration)
    try:
        request = next(gen)
        while True:
            request = gen.send(dataset[request.block_id])
    except StopIteration as stop:
        return stop.value
