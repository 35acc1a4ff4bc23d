"""Shared-memory block store: one copy of the data for every core.

The paper's Viracocha runs its work group as MPI processes on a PC
cluster; the framework here additionally fans extraction out to real
local cores (:mod:`repro.parallel.pool`).  Worker processes must not
each re-read and re-parse the dataset, so this module places every
block's serialized payload — the exact ``<f4`` on-disk layout of
:mod:`repro.io.format` — into :mod:`multiprocessing.shared_memory`
segments.  Workers attach by name and reconstruct zero-copy
:class:`~repro.grids.block.LazyStructuredBlock` views over the shared
pages: no pickling of arrays, no per-worker copies, fields upcast to
float64 only when an algorithm touches them.

Derived fields (a precomputed λ2 scalar, say) are stored in separate
float64 segments and grafted onto the reconstructed blocks, so a
threshold sweep pays the eigenvalue pass once per block instead of once
per sweep point.  float64 matters: results must stay byte-identical to
a serial run that computes λ2 in place.

Ownership: the process that creates the store owns the segments and is
the only one that unlinks them (workers attach/close only).  Under the
default ``fork`` start method all processes share one resource-tracker,
whose registry is a set — duplicate registrations from workers collapse
and the parent's single :meth:`unlink` retires each name cleanly, so
the interpreter exits without leaked ``shared_memory`` warnings.
"""

from __future__ import annotations

import math
from multiprocessing import shared_memory
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..grids.block import BlockHandle, LazyStructuredBlock
from ..io.dataset_io import DatasetStore
from ..io.format import block_from_buffer, block_to_bytes, field_directory

__all__ = ["ShmBlockStore"]


def _new_segment(payload_nbytes: int) -> shared_memory.SharedMemory:
    # Auto-generated names ("psm_...") are unique per boot; sizes may
    # round up to a page, which block_from_buffer tolerates.
    return shared_memory.SharedMemory(create=True, size=max(payload_nbytes, 1))


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
        self._segments: dict[tuple[int, int], shared_memory.SharedMemory] = {}
        self._payload_sizes: dict[tuple[int, int], int] = {}
        #: names of the scalar fields each block's payload stores, read
        #: once from its field directory so that :meth:`block_ranges`
        #: never views a block that lacks the scalar.
        self._scalars: dict[tuple[int, int], frozenset[str]] = {}
        self._derived: dict[
            tuple[int, int], dict[str, tuple[shared_memory.SharedMemory, tuple]]
        ] = {}
        self._handles: dict[int, list[BlockHandle]] = {}
        #: span-space table, ``{scalar: {time_index: {block_id: (lo, hi)}}}``,
        #: filled one time level at a time by :meth:`block_ranges`.
        self._ranges: dict[str, dict[int, dict[int, tuple[float, float]]]] = {}
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
        """
        self = cls()
        self._owner = True
        self.name = store.name
        self.times = store.times
        indices = list(time_indices) if time_indices is not None else list(
            range(store.n_timesteps)
        )
        for t in indices:
            self._handles[t] = store.handles(t)
            for b in range(store.n_blocks):
                buf = store.block_buffer(t, b)
                try:
                    shm = _new_segment(len(buf))
                    shm.buf[: len(buf)] = buf
                finally:
                    buf.release()
                self._add_segment((t, b), shm)
        return self

    @classmethod
    def from_source(
        cls, source: Any, time_indices: Iterable[int] | None = None
    ) -> "ShmBlockStore":
        """Load any :class:`~repro.dms.source.BlockSource` into shm.

        Sources that expose ``get_bytes`` (the :class:`StoreSource`
        zero-copy path) feed segments directly from their buffers;
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
        for t in indices:
            self._handles[t] = source.handles(t)
            for item in source.item_sequence(t):
                b = int(item.param("block"))
                if get_bytes is not None:
                    buf = memoryview(get_bytes(item))
                    try:
                        shm = _new_segment(len(buf))
                        shm.buf[: len(buf)] = buf
                    finally:
                        buf.release()
                else:
                    payload = block_to_bytes(source.get(item))
                    shm = _new_segment(len(payload))
                    shm.buf[: len(payload)] = payload
                self._add_segment((t, b), shm)
        return self

    def _add_segment(
        self, key: tuple[int, int], shm: shared_memory.SharedMemory
    ) -> None:
        self._segments[key] = shm
        self._payload_sizes[key] = shm.size
        self._scalars[key] = frozenset(
            name for name, ncomp in field_directory(shm.buf) if ncomp == 1
        )

    @classmethod
    def attach(cls, manifest: Mapping[str, Any]) -> "ShmBlockStore":
        """Open an existing store from its picklable :meth:`manifest`."""
        self = cls()
        self.name = manifest["name"]
        self.times = list(manifest["times"])
        self._handles = {int(t): list(hs) for t, hs in manifest["handles"].items()}
        for key, (seg_name, nbytes) in manifest["segments"].items():
            self._segments[key] = shared_memory.SharedMemory(name=seg_name)
            self._payload_sizes[key] = nbytes
        self._scalars = dict(manifest["scalars"])
        for key, fields in manifest["derived"].items():
            per_block = {}
            for fname, (seg_name, shape) in fields.items():
                per_block[fname] = (
                    shared_memory.SharedMemory(name=seg_name),
                    tuple(shape),
                )
            self._derived[key] = per_block
        return self

    def manifest(self) -> dict[str, Any]:
        """Everything a worker needs to :meth:`attach`, plain data."""
        return {
            "name": self.name,
            "times": list(self.times),
            "handles": {t: list(hs) for t, hs in self._handles.items()},
            "segments": {
                key: (shm.name, self._payload_sizes[key])
                for key, shm in self._segments.items()
            },
            "scalars": dict(self._scalars),
            "derived": {
                key: {
                    fname: (shm.name, tuple(shape))
                    for fname, (shm, shape) in fields.items()
                }
                for key, fields in self._derived.items()
            },
        }

    # ----------------------------------------------------------- derived
    def add_derived_field(
        self, time_index: int, block_id: int, name: str, data: np.ndarray
    ) -> None:
        """Store a derived float64 field for one block in its own segment.

        float64 (not the on-disk ``<f4``) so that commands consuming the
        field produce bytes identical to computing it in place.
        """
        key = (time_index, block_id)
        if key not in self._segments:
            raise KeyError(f"no block t={time_index} b={block_id} in store")
        data = np.ascontiguousarray(data, dtype=np.float64)
        shm = _new_segment(data.nbytes)
        staged = np.frombuffer(shm.buf, dtype=np.float64, count=data.size)
        staged.reshape(data.shape)[...] = data
        del staged
        self._derived.setdefault(key, {})[name] = (shm, data.shape)
        # The level's range table (if built) predates this field.
        self._ranges.get(name, {}).pop(time_index, None)

    def derived_fields(self, time_index: int, block_id: int) -> list[str]:
        return sorted(self._derived.get((time_index, block_id), {}))

    def derived_manifest(self) -> dict[tuple[int, int], dict[str, tuple]]:
        """The derived-field entries of :meth:`manifest`, standalone.

        Small and picklable — the pool ships it with every task so
        long-lived workers can :meth:`sync_derived` segments created
        *after* they attached, without rebuilding the pool.
        """
        return {
            key: {
                fname: (shm.name, tuple(shape))
                for fname, (shm, shape) in fields.items()
            }
            for key, fields in self._derived.items()
        }

    def sync_derived(self, derived: Mapping[tuple[int, int], dict]) -> None:
        """Attach any derived segments this process hasn't mapped yet."""
        for key, fields in derived.items():
            per_block = self._derived.setdefault(key, {})
            for fname, (seg_name, shape) in fields.items():
                if fname not in per_block:
                    per_block[fname] = (
                        shared_memory.SharedMemory(name=seg_name),
                        tuple(shape),
                    )

    # ------------------------------------------------------------ access
    def get_block(self, time_index: int, block_id: int) -> LazyStructuredBlock:
        """A zero-copy lazy block viewing the shared pages.

        The views are read-only (``toreadonly`` on the segment buffer):
        a worker scribbling on a field would otherwise corrupt every
        other worker's input.
        """
        key = (time_index, block_id)
        try:
            shm = self._segments[key]
        except KeyError:
            raise KeyError(f"no block t={time_index} b={block_id} in store") from None
        block = block_from_buffer(shm.buf.toreadonly(), lazy=True)
        for fname, (dshm, shape) in self._derived.get(key, {}).items():
            n = 1
            for dim in shape:
                n *= dim
            view = np.frombuffer(dshm.buf.toreadonly(), dtype=np.float64, count=n)
            block.attach_raw_field(fname, view.reshape(shape))
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
            for t, b in self._segments:
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
        return sorted(self._segments)

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
        total = sum(shm.size for shm in self._segments.values())
        for fields in self._derived.values():
            total += sum(shm.size for shm, _shape in fields.values())
        return total

    @property
    def n_segments(self) -> int:
        return len(self._segments) + sum(len(f) for f in self._derived.values())

    # ----------------------------------------------------------- cleanup
    def _all_segments(self) -> Iterable[shared_memory.SharedMemory]:
        yield from self._segments.values()
        for fields in self._derived.values():
            for shm, _shape in fields.values():
                yield shm

    def close(self) -> None:
        """Unmap this process's views (safe to call repeatedly)."""
        if self._closed:
            return
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
            f"ShmBlockStore(name={self.name!r}, blocks={len(self._segments)}, "
            f"derived={sum(len(f) for f in self._derived.values())}, "
            f"nbytes={self.nbytes})"
        )
