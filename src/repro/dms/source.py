"""Block sources: where data items ultimately come from.

The DMS "handles raw data without any information about its type or
structure.  For accessing this data, manipulation methods have to be
implemented on the application layer" (§4).  A :class:`BlockSource` is
that application-layer manipulation method for multi-block CFD data: it
materializes a named item's payload and knows the item's modeled
(paper-scale) size for cost accounting.
"""

from __future__ import annotations

from typing import Protocol

from ..grids.block import StructuredBlock
from ..io.dataset_io import DatasetStore
from ..synth.base import SyntheticDataset
from .items import ItemName, block_item

__all__ = ["BlockSource", "SyntheticSource", "StoreSource"]


class BlockSource(Protocol):
    """Application-layer loader for named block items."""

    name: str

    def get(self, item: ItemName) -> StructuredBlock: ...

    def modeled_bytes(self, item: ItemName) -> int: ...

    def item_sequence(self, time_index: int) -> list[ItemName]: ...

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

    def item_sequence(self, time_index: int) -> list[ItemName]:
        return [
            block_item(self.name, time_index, b)
            for b in range(self.dataset.spec.n_blocks)
        ]

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


class StoreSource:
    """Serves items from an on-disk :class:`DatasetStore`.

    Payloads materialize through the zero-copy path: mmap-backed
    buffers parsed by :func:`~repro.io.format.block_from_buffer` with
    lazy per-field float64 upcasts, so a forced load (and the proxy's
    node-to-node transfer path that re-materializes the item) never
    pays the eager ``<f4`` → float64 doubling for fields the command
    does not touch.  Set ``lazy=False`` to restore eager reads.
    """

    def __init__(self, store: DatasetStore, lazy: bool = True):
        self.store = store
        self.name = store.name
        self.lazy = lazy

    def get(self, item: ItemName) -> StructuredBlock:
        t, b = _indices(item)
        return self.store.read_block(t, b, lazy=self.lazy)

    def get_bytes(self, item: ItemName) -> memoryview:
        """The item's serialized payload (mmap-backed, no copies)."""
        t, b = _indices(item)
        return self.store.block_buffer(t, b)

    def modeled_bytes(self, item: ItemName) -> int:
        _, b = _indices(item)
        rec = self.store.meta["blocks"][b]
        ni, nj, nk = rec["modeled_shape"]
        from ..synth.base import BYTES_PER_POINT

        return ni * nj * nk * BYTES_PER_POINT

    def item_sequence(self, time_index: int) -> list[ItemName]:
        return [
            block_item(self.name, time_index, b) for b in range(self.store.n_blocks)
        ]

    def handles(self, time_index: int = 0) -> list:
        return self.store.handles(time_index)

    @property
    def n_timesteps(self) -> int:
        return self.store.n_timesteps

    @property
    def n_blocks(self) -> int:
        return self.store.n_blocks

    @property
    def times(self) -> list[float]:
        return self.store.times

    @property
    def field_components(self) -> dict[str, int]:
        return self.store.field_components
