"""Shared-memory block store: one copy of the data for every core.

The paper's Viracocha runs its work group as MPI processes on a PC
cluster; the framework here additionally fans extraction out to real
local cores (:mod:`repro.parallel.pool`).  Worker processes must not
each re-read and re-parse the dataset, so this module places every
block's serialized payload — the exact ``<f4`` on-disk layout of
:mod:`repro.io.format` — back to back in one
:mod:`multiprocessing.shared_memory` segment, each block found by its
offset.  Workers attach the segment by name and reconstruct zero-copy
:class:`~repro.grids.block.LazyStructuredBlock` views over the shared
pages: no pickling of arrays, no per-worker copies, fields upcast to
float64 only when an algorithm touches them.

Derived fields (λ2 of the velocity field, say) are stored float64, one
segment per batch of blocks (:meth:`ShmBlockStore.add_derived_fields`;
one per field in practice), and grafted onto the reconstructed blocks,
so a threshold sweep pays the eigenvalue pass once per block instead of
once per sweep point.  float64 matters: results must stay
byte-identical to a serial run that computes λ2 in place.  A store read
from a :class:`~repro.io.DatasetStore` maps the fields persisted beside
the dataset (:mod:`repro.io.derived`) when it is built, and
:meth:`~ShmBlockStore.persist_derived` writes new ones there.

Each process keeps one block object per ``(time, block)`` for as long
as its store is open, so what is derived on a block
(:meth:`~repro.grids.block.StructuredBlock.memo`: λ2, cell intervals,
BSP trees, point locators) and its float64 field copies serve every
later command in that process.  A derived segment that arrives later is
grafted onto the block already handed out.

Ownership: the process that creates the store owns the segments and is
the only one that unlinks them (workers attach/close only).  Under the
default ``fork`` start method all processes share one resource-tracker,
whose registry is a set — duplicate registrations from workers collapse
and the parent's single :meth:`unlink` retires each name cleanly, so
the interpreter exits without leaked ``shared_memory`` warnings.
"""

from __future__ import annotations

import math
import weakref
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..grids.block import BlockHandle, LazyStructuredBlock
from ..io.dataset_io import DatasetStore
from ..io.derived import block_stamp, load_derived, save_derived
from ..io.format import (
    FormatError,
    block_from_buffer,
    block_to_bytes,
    field_directory,
)

__all__ = ["ShmBlockStore"]


Key = tuple[int, int]


def _new_segment(payload_nbytes: int) -> shared_memory.SharedMemory:
    # Auto-generated names ("psm_...") are unique per boot.
    return shared_memory.SharedMemory(create=True, size=max(payload_nbytes, 1))


def _aligned(nbytes: int) -> int:
    """``nbytes`` rounded up to a cache line: where the next payload
    starts, so each array keeps the alignment it had when every block
    had a page-aligned segment of its own."""
    return -(-nbytes // 64) * 64


def _layout(sizes: Iterable[tuple[Key, int]]) -> tuple[dict[Key, int], int]:
    """Each key's offset when its ``nbytes`` are packed in order, and
    the total."""
    offsets, total = {}, 0
    for key, nbytes in sizes:
        offsets[key] = total
        total += _aligned(nbytes)
    return offsets, total


#: segments that could not unmap because a caller still holds NumPy
#: views into them.  Keeping the wrapper alive parks the mapping until
#: process exit (the OS reclaims it then) instead of letting a later GC
#: run ``SharedMemory.__del__`` against live views, which raises an
#: unraisable ``BufferError``.  The names are already unlinked, so this
#: holds pages, never files.
_PINNED_SEGMENTS: list[shared_memory.SharedMemory] = []


class ShmBlockStore:
    """Block payloads in shared memory, viewable from any process.

    Build with :meth:`from_store` (mmap fast path) or
    :meth:`from_source` (any :class:`~repro.dms.source.BlockSource`),
    ship :meth:`manifest` to workers, :meth:`attach` there, and
    :meth:`get_block` everywhere.  The creator should ``close()`` +
    ``unlink()`` (or use the store as a context manager) when done.
    """

    def __init__(self) -> None:
        self.name: str = ""
        self.times: list[float] = []
        #: the one segment holding every block payload, and each
        #: block's ``(offset, nbytes)`` in it.
        self._payload: shared_memory.SharedMemory | None = None
        self._spans: dict[Key, tuple[int, int]] = {}
        #: names of the scalar fields each block's payload stores, read
        #: once from its field directory so that :meth:`block_ranges`
        #: never views a block that lacks the scalar.
        self._scalars: dict[Key, frozenset[str]] = {}
        #: derived-field segments in the order they were added, each
        #: ``(field, segment, {key: (offset, shape)})``; a later batch
        #: for a key overrides an earlier one.
        self._derived_segments: list[
            tuple[str, shared_memory.SharedMemory, dict[Key, tuple[int, tuple]]]
        ] = []
        #: per key and field: where its derived array lives.
        self._derived: dict[
            Key, dict[str, tuple[shared_memory.SharedMemory, int, tuple]]
        ] = {}
        self._handles: dict[int, list[BlockHandle]] = {}
        #: span-space table, ``{scalar: {time_index: {block_id: (lo, hi)}}}``,
        #: filled one time level at a time by :meth:`block_ranges`.
        self._ranges: dict[str, dict[int, dict[int, tuple[float, float]]]] = {}
        #: the block object :meth:`get_block` hands out per key, kept
        #: until :meth:`close` so its memo and upcasts are reused.  A
        #: store never closed drops them at interpreter exit, before the
        #: segments' own finalizers try to unmap under live views.
        self._blocks: dict[Key, LazyStructuredBlock] = {}
        weakref.finalize(self, self._blocks.clear)
        #: the on-disk dataset a :meth:`from_store` store was read from,
        #: and its block files' stamps as read: where derived fields
        #: persist.  Unset everywhere else (workers, other sources).
        self._dataset: DatasetStore | None = None
        self._stamps: dict[Key, tuple[int, int]] = {}
        self._owner = False
        self._closed = False

    # ------------------------------------------------------ construction
    @classmethod
    def from_store(
        cls, store: DatasetStore, time_indices: Iterable[int] | None = None
    ) -> "ShmBlockStore":
        """Load an on-disk dataset into shared memory.

        Uses the mmap-backed :meth:`~repro.io.DatasetStore.block_buffer`
        fast path: file pages are copied straight into the segment, with
        no ``BytesIO``, no parse and no float64 upcast in the parent.
        Derived fields persisted beside the dataset are mapped as well,
        for every block whose file is unchanged since they were derived.
        """
        self = cls()
        self._owner = True
        self._dataset = store
        self.name = store.name
        self.times = store.times
        indices = list(time_indices) if time_indices is not None else list(
            range(store.n_timesteps)
        )
        for t in indices:
            self._handles[t] = store.handles(t)
            for b in range(store.n_blocks):
                # Stamp before reading: a rewrite in between then reads
                # as stale, never as current.
                self._stamps[(t, b)] = block_stamp(store, t, b)
        self._pack(
            [(key, size) for key, (size, _mtime) in self._stamps.items()],
            lambda key: store.block_buffer(*key),
        )
        for name, arrays in load_derived(store, self._stamps).items():
            self.add_derived_fields(name, arrays)
        return self

    @classmethod
    def from_source(
        cls, source: Any, time_indices: Iterable[int] | None = None
    ) -> "ShmBlockStore":
        """Load any :class:`~repro.dms.source.BlockSource` into shm.

        Sources that expose ``get_bytes`` (the :class:`StoreSource`
        zero-copy path) feed the segment directly from their buffers;
        others (synthetic generators) serialize each block once through
        :func:`~repro.io.format.block_to_bytes` — note that casts
        in-memory float64 fields to the canonical ``<f4`` layout.
        """
        self = cls()
        self._owner = True
        self.name = source.name
        self.times = list(source.times)
        indices = list(time_indices) if time_indices is not None else list(
            range(source.n_timesteps)
        )
        get_bytes = getattr(source, "get_bytes", None)
        payloads: dict[Key, Any] = {}
        for t in indices:
            self._handles[t] = source.handles(t)
            for item in source.item_sequence(t):
                payloads[(t, int(item.param("block")))] = (
                    get_bytes(item) if get_bytes is not None
                    else block_to_bytes(source.get(item))
                )
        self._pack(
            [(key, memoryview(p).nbytes) for key, p in payloads.items()],
            lambda key: memoryview(payloads.pop(key)),
        )
        return self

    def _pack(
        self,
        sizes: Sequence[tuple[Key, int]],
        read: Callable[[Key], memoryview],
    ) -> None:
        """Copy every block's payload into the one payload segment, one
        buffer at a time (``read`` is called once per key, in order)."""
        offsets, total = _layout(sizes)
        self._payload = shm = _new_segment(total)
        try:
            for key, nbytes in sizes:
                start = offsets[key]
                buf = read(key)
                try:
                    if buf.nbytes != nbytes:
                        raise FormatError(
                            f"block t={key[0]} b={key[1]} changed size while loading"
                        )
                    shm.buf[start:start + nbytes] = buf
                finally:
                    buf.release()
                self._spans[key] = (start, nbytes)
                self._scalars[key] = frozenset(
                    name
                    for name, ncomp in field_directory(shm.buf[start:start + nbytes])
                    if ncomp == 1
                )
        except BaseException:
            self._payload = None
            shm.close()
            shm.unlink()
            raise

    @classmethod
    def attach(cls, manifest: Mapping[str, Any]) -> "ShmBlockStore":
        """Open an existing store from its picklable :meth:`manifest`."""
        self = cls()
        self.name = manifest["name"]
        self.times = list(manifest["times"])
        self._handles = {int(t): list(hs) for t, hs in manifest["handles"].items()}
        self._payload = shared_memory.SharedMemory(name=manifest["payload"])
        self._spans = dict(manifest["spans"])
        self._scalars = dict(manifest["scalars"])
        self.sync_derived(manifest["derived"])
        return self

    def manifest(self) -> dict[str, Any]:
        """Everything a worker needs to :meth:`attach`, plain data."""
        return {
            "name": self.name,
            "times": list(self.times),
            "handles": {t: list(hs) for t, hs in self._handles.items()},
            "payload": self._payload.name,
            "spans": dict(self._spans),
            "scalars": dict(self._scalars),
            "derived": self.derived_manifest(),
        }

    # ----------------------------------------------------------- derived
    def add_derived_fields(self, name: str, arrays: Mapping[Key, np.ndarray]) -> None:
        """Store derived float64 field ``name`` for many blocks at once,
        in one new segment.

        float64 (not the on-disk ``<f4``) so that commands consuming the
        field produce bytes identical to computing it in place.
        """
        for t, b in arrays:
            if (t, b) not in self._spans:
                raise KeyError(f"no block t={t} b={b} in store")
        if not arrays:
            return
        staged = {
            key: np.ascontiguousarray(data, dtype=np.float64)
            for key, data in sorted(arrays.items())
        }
        offsets, total = _layout((key, data.nbytes) for key, data in staged.items())
        shm = _new_segment(total)
        layout = {}
        for key, data in staged.items():
            dst = np.frombuffer(shm.buf, dtype=np.float64, count=data.size,
                                offset=offsets[key])
            dst.reshape(data.shape)[...] = data
            layout[key] = (offsets[key], data.shape)
        del dst
        self._add_derived_segment(name, shm, layout)

    def _add_derived_segment(
        self,
        name: str,
        shm: shared_memory.SharedMemory,
        layout: Mapping[Key, tuple[int, tuple]],
    ) -> None:
        self._derived_segments.append((name, shm, dict(layout)))
        for key, (offset, shape) in layout.items():
            self._derived.setdefault(key, {})[name] = (shm, offset, tuple(shape))
            self._graft(key, name)
        # The levels' range tables (if built) predate this field.
        for t in {t for t, _b in layout}:
            self._ranges.get(name, {}).pop(t, None)

    def derived_fields(self, time_index: int, block_id: int) -> list[str]:
        return sorted(self._derived.get((time_index, block_id), {}))

    def lacking(self, name: str, time_indices: Iterable[int]) -> list[Key]:
        """The keys of these levels whose block neither stores nor has
        derived a field ``name``: what deriving it has to cover."""
        levels = set(time_indices)
        return [
            key for key in self.keys()
            if key[0] in levels
            and name not in self._scalars[key]
            and name not in self._derived.get(key, {})
        ]

    def persist_derived(self, name: str) -> bool:
        """Write derived field ``name`` beside the dataset this store
        was read from, for every block that has it.  ``False`` when
        there is no such dataset or its directory cannot be written;
        nothing is raised either way."""
        if self._dataset is None:
            return False
        arrays = {
            key: self._derived_view(key, name)
            for key, fields in self._derived.items() if name in fields
        }
        return save_derived(self._dataset, name, arrays, self._stamps)

    def derived_manifest(self) -> list[tuple[str, str, dict]]:
        """The derived-field entries of :meth:`manifest`, standalone:
        ``(field, segment name, {key: (offset, shape)})`` per segment.

        Small and picklable — the pool ships it with every task so
        long-lived workers can :meth:`sync_derived` segments created
        *after* they attached, without rebuilding the pool.
        """
        return [
            (name, shm.name, dict(layout))
            for name, shm, layout in self._derived_segments
        ]

    def sync_derived(self, derived: Sequence[tuple[str, str, Mapping]]) -> None:
        """Attach any derived segments this process hasn't mapped yet."""
        mapped = {shm.name for _name, shm, _layout in self._derived_segments}
        for name, seg_name, layout in derived:
            if seg_name not in mapped:
                self._add_derived_segment(
                    name, shared_memory.SharedMemory(name=seg_name), layout
                )

    def _graft(self, key: Key, fname: str) -> None:
        """Attach derived field ``fname`` to ``key``'s block, if handed
        out already; memo entries that read the field are rebuilt."""
        block = self._blocks.get(key)
        if block is not None:
            block.attach_raw_field(fname, self._derived_view(key, fname))

    def _derived_view(self, key: Key, fname: str) -> np.ndarray:
        dshm, offset, shape = self._derived[key][fname]
        view = np.frombuffer(
            dshm.buf.toreadonly(), dtype=np.float64, count=math.prod(shape),
            offset=offset,
        )
        return view.reshape(shape)

    # ------------------------------------------------------------ access
    def get_block(self, time_index: int, block_id: int) -> LazyStructuredBlock:
        """The zero-copy lazy block viewing the shared pages.

        One object per key until :meth:`close`: the same block (with
        its float64 upcasts and memoised derived data) answers every
        later call in this process.  The views are read-only
        (``toreadonly`` on the segment buffer) and so are the upcast
        copies: a command scribbling on a field would otherwise corrupt
        every other worker's input, or its own next run's.
        """
        key = (time_index, block_id)
        block = self._blocks.get(key)
        if block is not None:
            return block
        try:
            start, nbytes = self._spans[key]
        except KeyError:
            raise KeyError(f"no block t={time_index} b={block_id} in store") from None
        block = block_from_buffer(
            self._payload.buf[start:start + nbytes].toreadonly(), lazy=True
        )
        for fname in self._derived.get(key, {}):
            block.attach_raw_field(fname, self._derived_view(key, fname))
        self._blocks[key] = block
        return block

    def block_ranges(
        self, scalar: str, time_index: int
    ) -> dict[int, tuple[float, float]]:
        """Exact ``(min, max)`` of a stored scalar per block of one level.

        Built on first request by one pass over the stored views (raw
        ``<f4`` payloads or float64 derived segments — the upcast is
        exact, so these bound the float64 values algorithms see) and
        cached.  Blocks without the scalar, and blocks whose range is
        not finite, have no entry: nothing may be concluded about them.
        """
        levels = self._ranges.setdefault(scalar, {})
        spans = levels.get(time_index)
        if spans is None:
            spans = levels[time_index] = {}
            for t, b in self._spans:
                if t != time_index or (
                    scalar not in self._scalars[(t, b)]
                    and scalar not in self._derived.get((t, b), {})
                ):
                    continue
                raw = self.get_block(t, b).fields.raw_view(scalar)
                if raw is None or raw.ndim != 3 or raw.size == 0:
                    continue
                lo, hi = float(raw.min()), float(raw.max())
                if math.isfinite(lo) and math.isfinite(hi):
                    spans[b] = (lo, hi)
        return spans

    def handles(self, time_index: int = 0) -> list[BlockHandle]:
        try:
            return list(self._handles[time_index])
        except KeyError:
            raise IndexError(
                f"time index {time_index} not loaded; have {sorted(self._handles)}"
            ) from None

    def keys(self) -> list[tuple[int, int]]:
        return sorted(self._spans)

    @property
    def time_indices(self) -> list[int]:
        return sorted(self._handles)

    @property
    def n_timesteps(self) -> int:
        return len(self.times)

    @property
    def n_blocks(self) -> int:
        if not self._handles:
            return 0
        return len(next(iter(self._handles.values())))

    @property
    def nbytes(self) -> int:
        """Total shared bytes (block payloads plus derived fields)."""
        return sum(shm.size for shm in self._all_segments())

    @property
    def n_segments(self) -> int:
        """One for the payloads plus one per derived-field batch."""
        return sum(1 for _shm in self._all_segments())

    # ----------------------------------------------------------- cleanup
    def _all_segments(self) -> Iterable[shared_memory.SharedMemory]:
        if self._payload is not None:
            yield self._payload
        for _name, shm, _layout in self._derived_segments:
            yield shm

    def close(self) -> None:
        """Unmap this process's views (safe to call repeatedly)."""
        if self._closed:
            return
        # Drop the blocks (and their views) first so the segments unmap.
        self._blocks.clear()
        for shm in self._all_segments():
            try:
                shm.close()
            except BufferError:
                # A caller still holds a NumPy view into the segment.
                # Pin the wrapper for the rest of the process so the
                # mapping outlives the views; unlink() below retires
                # the name regardless.
                _PINNED_SEGMENTS.append(shm)
        self._closed = True

    def unlink(self) -> None:
        """Retire the segment names (owner only; attached stores no-op)."""
        if not self._owner:
            return
        for shm in self._all_segments():
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._owner = False

    def cleanup(self) -> None:
        self.close()
        self.unlink()

    def __enter__(self) -> "ShmBlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()

    def __repr__(self) -> str:
        return (
            f"ShmBlockStore(name={self.name!r}, blocks={len(self._spans)}, "
            f"derived={sum(len(f) for f in self._derived.values())}, "
            f"nbytes={self.nbytes})"
        )
