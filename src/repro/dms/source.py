"""Block sources: where data items ultimately come from.

The DMS "handles raw data without any information about its type or
structure.  For accessing this data, manipulation methods have to be
implemented on the application layer" (§4).  A :class:`BlockSource` is
that application-layer manipulation method for multi-block CFD data: it
materializes a named item's payload and knows the item's modeled
(paper-scale) size for cost accounting.

Two kinds exist: :class:`SyntheticSource` builds each block from its
generator, and :class:`~repro.parallel.shm.ShmBlockStore` serves block
files mapped read-only, the same store the real path reads.
"""

from __future__ import annotations

from typing import Protocol

from ..grids.block import StructuredBlock
from ..synth.base import SyntheticDataset
from .items import ItemName

__all__ = ["BlockSource", "SyntheticSource"]


class BlockSource(Protocol):
    """Application-layer loader for named block items."""

    name: str

    def get(self, item: ItemName) -> StructuredBlock: ...

    def modeled_bytes(self, item: ItemName) -> int: ...

    def handles(self, time_index: int = 0) -> list: ...

    @property
    def n_timesteps(self) -> int: ...

    @property
    def n_blocks(self) -> int: ...

    @property
    def times(self) -> list[float]: ...

    @property
    def field_components(self) -> dict[str, int]:
        """Each stored field's component count (1: a scalar), by name."""
        ...


def _indices(item: ItemName) -> tuple[int, int]:
    time_index = item.param("time")
    block_id = item.param("block")
    if time_index is None or block_id is None:
        raise KeyError(f"item {item} does not name a block (missing time/block)")
    return int(time_index), int(block_id)


class SyntheticSource:
    """Serves items straight from a :class:`SyntheticDataset` generator."""

    def __init__(self, dataset: SyntheticDataset):
        self.dataset = dataset
        self.name = dataset.spec.name

    def get(self, item: ItemName) -> StructuredBlock:
        t, b = _indices(item)
        return self.dataset.build_block(t, b)

    def modeled_bytes(self, item: ItemName) -> int:
        _, b = _indices(item)
        return self.dataset.spec.block_bytes(b)

    def handles(self, time_index: int = 0) -> list:
        return self.dataset.handles(time_index)

    @property
    def n_timesteps(self) -> int:
        return self.dataset.spec.n_timesteps

    @property
    def n_blocks(self) -> int:
        return self.dataset.spec.n_blocks

    @property
    def times(self) -> list[float]:
        return self.dataset.spec.times

    @property
    def field_components(self) -> dict[str, int]:
        return dict(self.dataset.field_components)
