"""Multi-block datasets and time series.

A :class:`MultiBlockDataset` is one time level of a CFD solution: a list
of curvilinear :class:`~repro.grids.block.StructuredBlock` objects that
jointly tile the domain.  A :class:`TimeSeries` stacks those over time
levels (the paper's Engine has 63, the Propfan 50).
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .block import BlockHandle, StructuredBlock

__all__ = ["MultiBlockDataset", "TimeSeries"]


class MultiBlockDataset:
    """All blocks of one time level."""

    def __init__(
        self, blocks: Sequence[StructuredBlock], name: str = "dataset", time: float = 0.0
    ):
        if not blocks:
            raise ValueError("a dataset needs at least one block")
        ids = [b.block_id for b in blocks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate block ids: {sorted(ids)}")
        self.blocks = list(blocks)
        self.name = name
        self.time = float(time)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[StructuredBlock]:
        return iter(self.blocks)

    def __getitem__(self, block_id: int) -> StructuredBlock:
        for b in self.blocks:
            if b.block_id == block_id:
                return b
        raise KeyError(f"no block with id {block_id}")

    @property
    def n_cells(self) -> int:
        return sum(b.n_cells for b in self.blocks)

    @property
    def n_points(self) -> int:
        return sum(b.n_points for b in self.blocks)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.blocks)

    def bounds(self) -> np.ndarray:
        lows = np.vstack([b.bounds()[0] for b in self.blocks])
        highs = np.vstack([b.bounds()[1] for b in self.blocks])
        return np.vstack([lows.min(axis=0), highs.max(axis=0)])

    def field_names(self) -> list[str]:
        names = set(self.blocks[0].fields)
        for b in self.blocks[1:]:
            names &= set(b.fields)
        return sorted(names)

    def scalar_range(self, name: str) -> tuple[float, float]:
        ranges = [b.scalar_range(name) for b in self.blocks]
        return min(r[0] for r in ranges), max(r[1] for r in ranges)

    def handles(
        self, modeled_shapes: Sequence[tuple[int, int, int]] | None = None
    ) -> list[BlockHandle]:
        """Planner-side references, optionally carrying paper-scale shapes."""
        out = []
        for idx, b in enumerate(self.blocks):
            modeled = (
                tuple(modeled_shapes[idx]) if modeled_shapes is not None else b.shape
            )
            bb = b.bounds()
            out.append(
                BlockHandle(
                    dataset=self.name,
                    block_id=b.block_id,
                    time_index=b.time_index,
                    shape=b.shape,
                    modeled_shape=modeled,  # type: ignore[arg-type]
                    bounds_min=tuple(bb[0]),
                    bounds_max=tuple(bb[1]),
                )
            )
        return out


class TimeSeries:
    """Time levels of a multi-block solution, possibly lazily produced.

    Parameters
    ----------
    times:
        Monotonically increasing physical times of the levels.
    getter:
        Callable mapping a time *index* to its
        :class:`MultiBlockDataset`.  May generate on demand (synthetic
        data) or read from a store.
    """

    def __init__(
        self,
        times: Sequence[float],
        getter: Callable[[int], MultiBlockDataset],
        name: str = "series",
    ):
        times = [float(t) for t in times]
        if not times:
            raise ValueError("a time series needs at least one level")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self._getter = getter
        self.name = name
        self._cache: dict[int, MultiBlockDataset] = {}

    def __len__(self) -> int:
        return len(self.times)

    def level(self, index: int) -> MultiBlockDataset:
        if not 0 <= index < len(self.times):
            raise IndexError(f"time index {index} out of range 0..{len(self.times)-1}")
        if index not in self._cache:
            self._cache[index] = self._getter(index)
        return self._cache[index]
