"""On-disk multi-block dataset store.

Directory layout (one file per block per time level, mirroring the
paper's observation that "the source of a data item can be a single
file, a part of a file, or even a combination of files")::

    <root>/
      meta.json
      t0000_b0000.blk
      t0000_b0001.blk
      ...
      derived/          fields derived from the blocks (repro.io.derived)

The store is the ground truth the DMS loads from; its ``meta.json``
carries both actual and modeled shapes so handles can be reconstructed
without opening block files.  ``derived/`` is a cache: it may be absent
or stale at any time, and :func:`write_dataset` removes it.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import shutil
import sys
from pathlib import Path
from typing import Sequence

from ..grids.block import BlockHandle, StructuredBlock
from ..grids.multiblock import MultiBlockDataset
from .format import FormatError, block_from_buffer, field_directory, write_block

__all__ = ["DatasetStore", "write_dataset", "block_filename", "map_file",
           "file_stamp", "MAPS_HOLD_FDS", "DERIVED_DIR"]

#: the subdirectory of a store's root that holds persisted derived fields.
DERIVED_DIR = "derived"

#: ``(st_size, st_mtime_ns, st_ino)`` of a file: what tells a rewrite.
Stamp = tuple[int, int, int]


def file_stamp(st: os.stat_result) -> Stamp:
    return st.st_size, st.st_mtime_ns, st.st_ino


#: whether a live map holds a file descriptor (unless told otherwise,
#: from Python 3.13 on).
MAPS_HOLD_FDS = not (sys.version_info >= (3, 13) and os.name == "posix")
_UNTRACKED = {} if MAPS_HOLD_FDS else {"trackfd": False}


def map_file(path: str | Path, copy: bool = False) -> tuple[memoryview, os.stat_result]:
    """A read-only map of the file at ``path`` and its ``fstat`` as
    mapped.  The page cache backs the map, so every process mapping the
    file shares one copy; the mapping lives as long as the returned
    memoryview (or any NumPy view into it) does.  With ``copy`` the
    bytes are read into this process instead, holding no descriptor."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if copy:
            return memoryview(fh.read()), st
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ, **_UNTRACKED)
    return memoryview(mapped), st


def block_filename(time_index: int, block_id: int) -> str:
    return f"t{time_index:04d}_b{block_id:04d}.blk"


def write_dataset(
    root: str | Path,
    levels: Sequence[MultiBlockDataset],
    name: str | None = None,
    modeled_shapes: Sequence[tuple[int, int, int]] | None = None,
    times: Sequence[float] | None = None,
) -> "DatasetStore":
    """Write time levels to ``root`` and return the opened store.

    Fields derived from an earlier dataset at ``root`` are removed: a
    block rewritten within one mtime tick would still pass their check.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if not levels:
        raise ValueError("need at least one time level")
    shutil.rmtree(root / DERIVED_DIR, ignore_errors=True)
    n_blocks = len(levels[0])
    for t, level in enumerate(levels):
        if len(level) != n_blocks:
            raise ValueError(
                f"time level {t} has {len(level)} blocks, expected {n_blocks}"
            )
        for block in level:
            # A new file replaces the old one whole: a map of the old
            # file keeps its bytes, where truncating it under the map
            # would fault the reader.
            path = root / block_filename(t, block.block_id)
            tmp = path.with_name(f".{path.name}.tmp")
            with open(tmp, "wb") as fh:
                write_block(fh, block)
            os.replace(tmp, path)
    first = levels[0]
    handles = first.handles(modeled_shapes=modeled_shapes)
    meta = {
        "name": name or first.name,
        "n_timesteps": len(levels),
        "n_blocks": n_blocks,
        "times": list(times) if times is not None else [lvl.time for lvl in levels],
        "fields": first.field_names(),
        "blocks": [
            {
                "block_id": h.block_id,
                "shape": list(h.shape),
                "modeled_shape": list(h.modeled_shape),
                "bounds_min": list(h.bounds_min),
                "bounds_max": list(h.bounds_max),
            }
            for h in handles
        ],
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2))
    return DatasetStore(root)


class DatasetStore:
    """Read access to an on-disk multi-block time series."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        meta_path = self.root / "meta.json"
        if not meta_path.exists():
            raise FileNotFoundError(f"no dataset at {self.root} (missing meta.json)")
        self.meta = json.loads(meta_path.read_text())
        for key in ("name", "n_timesteps", "n_blocks", "blocks"):
            if key not in self.meta:
                raise FormatError(f"meta.json missing key {key!r}")

    @property
    def name(self) -> str:
        return self.meta["name"]

    @property
    def n_timesteps(self) -> int:
        return self.meta["n_timesteps"]

    @property
    def n_blocks(self) -> int:
        return self.meta["n_blocks"]

    @property
    def times(self) -> list[float]:
        return list(self.meta["times"])

    @functools.cached_property
    def field_components(self) -> dict[str, int]:
        """Each stored field's component count (1: a scalar), by name,
        read once from the first block's field directory."""
        names = set(self.meta["fields"])
        return {
            name: ncomp for name, ncomp in field_directory(self.block_buffer(0, 0))
            if name in names
        }

    def block_path(self, time_index: int, block_id: int) -> Path:
        self._check_indices(time_index, block_id)
        return self.root / block_filename(time_index, block_id)

    def _check_indices(self, time_index: int, block_id: int) -> None:
        if not 0 <= time_index < self.n_timesteps:
            raise IndexError(
                f"time index {time_index} out of range 0..{self.n_timesteps - 1}"
            )
        if not 0 <= block_id < self.n_blocks:
            raise IndexError(f"block id {block_id} out of range 0..{self.n_blocks - 1}")

    def block_buffer(self, time_index: int, block_id: int) -> memoryview:
        """The raw serialized block as a read-only map (:func:`map_file`):
        the file's pages, never copied through a ``BytesIO``."""
        return map_file(self.block_path(time_index, block_id))[0]

    def read_block(
        self, time_index: int, block_id: int, lazy: bool = False
    ) -> StructuredBlock:
        """One block, deserialized via mmap (never a stream copy).

        ``lazy=True`` returns a zero-copy
        :class:`~repro.grids.block.LazyStructuredBlock` whose arrays
        are read-only views over the mapped file and whose ``<f4``
        fields upcast to float64 only on first access.  The default
        materializes everything eagerly (writable arrays, no aliasing),
        matching the historical behavior.
        """
        return block_from_buffer(self.block_buffer(time_index, block_id), lazy=lazy)

    def read_level(self, time_index: int, lazy: bool = False) -> MultiBlockDataset:
        blocks = [
            self.read_block(time_index, b, lazy=lazy) for b in range(self.n_blocks)
        ]
        time = self.times[time_index] if self.times else float(time_index)
        return MultiBlockDataset(blocks, name=self.name, time=time)

    def handles(self, time_index: int = 0) -> list[BlockHandle]:
        self._check_indices(time_index, 0)
        return [
            BlockHandle(
                dataset=self.name,
                block_id=rec["block_id"],
                time_index=time_index,
                shape=tuple(rec["shape"]),
                modeled_shape=tuple(rec["modeled_shape"]),
                bounds_min=tuple(rec["bounds_min"]),
                bounds_max=tuple(rec["bounds_max"]),
            )
            for rec in self.meta["blocks"]
        ]
