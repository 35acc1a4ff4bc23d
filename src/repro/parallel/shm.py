"""Block store shared through the page cache: one copy of the data for
every core.

The paper's Viracocha runs its work group as MPI processes on a PC
cluster, and its data management system keeps data items in a
local-disk tier that every worker reads; here extraction also fans out
to real local cores (:mod:`repro.parallel.pool`).  So that workers do
not each re-read and re-parse the dataset, every block lives in a file
in the ``<f4`` layout of :mod:`repro.io.format` that every process maps
read-only: the kernel's page cache holds one copy for all of them, and
each process builds zero-copy
:class:`~repro.grids.block.LazyStructuredBlock` views over its map.

Every store maps a dataset directory, one file per block: a
:class:`~repro.io.DatasetStore`'s own block files where they lie, or a
synthetic dataset written once (:func:`~repro.io.write_dataset`) into a
private temporary directory, removed at :meth:`~ShmBlockStore.cleanup`.
The parent stamps each file (size, ``mtime_ns``, inode) when the store
is built; every process maps a file on its first
:meth:`~ShmBlockStore.get_block` and raises
:class:`~repro.io.format.FormatError` if it is no longer the file
stamped, so a dataset rewritten under a live store reads as the old
bytes or fails, never as a mix.

The store is also a :class:`~repro.dms.source.BlockSource`, so the
simulated cluster (:class:`~repro.core.session.ViracochaSession`) reads
the same maps, block objects and derived fields as the real path.

Derived fields (λ2 of the velocity field, say) are float64 arrays
(byte-identical to computing them in place) written into one file per
batch of blocks (:meth:`ShmBlockStore.add_derived_fields`): beside the
dataset when it can be written (:mod:`repro.io.derived`; a synthetic
dataset's lie under its private directory), so every later open maps
them where they lie, else into the private directory.

Each process keeps one block object per ``(time, block)`` while its
store is open, so what is derived on a block
(:meth:`~repro.grids.block.StructuredBlock.memo`) and its float64 field
copies serve every later command, and a derived field that arrives
later is grafted onto it.  A map is dropped with its last view.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..grids.block import BlockHandle, LazyStructuredBlock
from ..dms.items import ItemName
from ..dms.source import _indices
from ..io.dataset_io import (
    MAPS_HOLD_FDS, DatasetStore, Stamp, file_stamp, map_file, write_dataset,
)
from ..io.derived import Layout, load_derived, save_derived, write_arrays
from ..io.format import FormatError, block_from_buffer, field_directory
from ..synth.base import BYTES_PER_POINT, SyntheticDataset

__all__ = ["ShmBlockStore"]


Key = tuple[int, int]

#: a private directory's name: this prefix, the creator's pid, a token.
_PRIVATE_PREFIX = "repro-store-"
#: descriptors a process keeps free of maps, for everything else it
#: opens (pool pipes, result arenas, files being written).
_FD_HEADROOM = 256


def _lock(path: Path) -> int | None:
    """A descriptor of directory ``path`` holding an exclusive
    ``flock`` on it, or ``None`` when another descriptor holds one."""
    if os.name != "posix":
        return None
    import fcntl

    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        return None
    return fd


def _remove_private(path: str, pid: int, lock: int | None) -> None:
    # Forked workers inherit the finalizer; only the creator removes.
    if os.getpid() == pid:
        shutil.rmtree(path, ignore_errors=True)
        if lock is not None:
            os.close(lock)


def _remove_orphans() -> None:
    """Remove this user's private directories whose creator is gone
    without cleaning up (killed, say): the pid in the name is not a
    live process here, and no process holds the directory's lock (the
    pid may be a live one's in another pid namespace sharing this
    temporary directory)."""
    if os.name != "posix":
        return
    for path in Path(tempfile.gettempdir()).glob(f"{_PRIVATE_PREFIX}*-*"):
        pid = path.name[len(_PRIVATE_PREFIX):].split("-", 1)[0]
        try:
            if not pid.isdigit() or path.stat().st_uid != os.getuid():
                continue
            os.kill(int(pid), 0)
        except ProcessLookupError:
            try:
                lock = _lock(path)
            except OSError:
                continue  # already gone
            if lock is not None:
                shutil.rmtree(path, ignore_errors=True)
                os.close(lock)
        except OSError:
            continue  # alive under another user, or already gone


def _scalars(payload) -> frozenset[str]:
    """The scalar fields a serialized block stores (its header only)."""
    return frozenset(name for name, ncomp in field_directory(payload) if ncomp == 1)


def _map_budget(wanted: int) -> float:
    """How many files one store may keep mapped in this process.

    Where each map holds a file descriptor (:data:`MAPS_HOLD_FDS`), the
    soft open-file limit is raised toward the hard one to fit ``wanted``
    maps beside the descriptors already open (a forked worker inherits
    its parent's).  Files beyond the budget are read in, not mapped.
    """
    if not MAPS_HOLD_FDS or os.name != "posix":
        return math.inf
    import resource

    held = len(os.listdir("/dev/fd"))  # Linux and macOS alike
    need = held + wanted + _FD_HEADROOM
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    unlimited = resource.RLIM_INFINITY
    if soft != unlimited and soft < need:
        target = need if hard == unlimited else min(need, hard)
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
            soft = target
        except (ValueError, OSError):
            pass
    return math.inf if soft == unlimited else max(0, soft - held - _FD_HEADROOM)


class ShmBlockStore:
    """Block files mapped read-only, viewable from any process.

    Build with :meth:`from_store` (a dataset's own files) or
    :meth:`from_synthetic` (a synthetic dataset, written once to a
    private directory), ship :meth:`manifest` to workers, :meth:`attach`
    there, and :meth:`get_block` everywhere.  As a
    :class:`~repro.dms.source.BlockSource` (:meth:`get`,
    :meth:`modeled_bytes`) it feeds a simulated session the same blocks.  The creator should :meth:`cleanup` (or use
    the store as a context manager) when done.
    """

    def __init__(self) -> None:
        self.name: str = ""
        self.times: list[float] = []
        #: the fields the data's blocks store (derived ones aside), with
        #: their component counts.
        self._fields: dict[str, int] = {}
        #: each block's file and the stamp the parent gave it.
        self._files: dict[Key, tuple[str, Stamp]] = {}
        #: this process's read-only maps, by path (blocks and derived).
        self._maps: dict[str, memoryview] = {}
        #: how many of them may be maps; the rest are read in.
        self._budget = math.inf
        #: names of the scalar fields each block's payload stores, read
        #: once from its field directory so that :meth:`block_ranges`
        #: never views a block that lacks the scalar.
        self._scalars: dict[Key, frozenset[str]] = {}
        #: per key and field: the derived array's ``(path, offset, shape)``.
        self._derived: dict[Key, dict[str, tuple[str, int, tuple]]] = {}
        self._handles: dict[int, list[BlockHandle]] = {}
        #: span-space table, ``{scalar: {time_index: {block_id: (lo, hi)}}}``,
        #: filled one time level at a time by :meth:`block_ranges`.
        self._ranges: dict[str, dict[int, dict[int, tuple[float, float]]]] = {}
        #: the block object :meth:`get_block` hands out per key, kept
        #: until :meth:`close` so its memo and upcasts are reused.
        self._blocks: dict[Key, LazyStructuredBlock] = {}
        #: the dataset the creator's store maps: where derived fields
        #: persist.  An attached store derives nothing, and has none.
        self._dataset: DatasetStore | None = None
        #: the temporary directory this store writes and removes, made
        #: on first need, and its remover.
        self._private: Path | None = None
        self._remove: weakref.finalize | None = None
        #: bumped whenever :meth:`worker_state` changes: a derived file
        #: registered.
        self.generation = 0

    # ------------------------------------------------------ construction
    @classmethod
    def from_store(cls, store: DatasetStore) -> "ShmBlockStore":
        """Map an on-disk dataset's block files where they lie, and the
        derived fields persisted beside it for every block whose file is
        unchanged since they were derived."""
        return cls()._open(store)

    @classmethod
    def from_synthetic(cls, dataset: SyntheticDataset) -> "ShmBlockStore":
        """Write a synthetic dataset once, every level, into a private
        directory (:func:`~repro.io.write_dataset`: float64 fields cast
        to the canonical ``<f4`` layout) and map it there like
        :meth:`from_store`; its derived fields persist under that
        directory, and all of it goes with :meth:`cleanup`."""
        self = cls()
        try:
            spec = dataset.spec
            written = write_dataset(
                self._private_dir(),
                [dataset.level(t) for t in range(spec.n_timesteps)],
                modeled_shapes=list(spec.modeled_shapes),
                times=spec.times,
            )
            return self._open(written)
        except BaseException:
            self.cleanup()
            raise

    def _open(self, store: DatasetStore) -> "ShmBlockStore":
        self.name, self.times = store.name, list(store.times)
        self._fields = dict(store.field_components)
        self._dataset = store
        for t in range(store.n_timesteps):
            self._handles[t] = store.handles(t)
            for b in range(store.n_blocks):
                path = str(store.block_path(t, b))
                buf, st = map_file(path)
                self._files[(t, b)] = (path, file_stamp(st))
                self._scalars[(t, b)] = _scalars(buf)
        self._budget = _map_budget(len(self._files))
        for name, (path, layout) in load_derived(store, self._stamps()).items():
            try:
                self._map(str(path))
            except FormatError:
                continue  # replaced since it was listed: derived again
            self._add_derived_file(name, str(path), layout)
        return self

    def _private_dir(self) -> Path:
        """The store's temporary directory, made on first need and
        locked (:func:`_lock`) until it is removed."""
        if self._private is None:
            _remove_orphans()
            self._private = Path(tempfile.mkdtemp(
                prefix=f"{_PRIVATE_PREFIX}{os.getpid()}-"
            ))
            self._remove = weakref.finalize(
                self, _remove_private, str(self._private), os.getpid(),
                _lock(self._private),
            )
        return self._private

    def _stamps(self) -> dict[Key, Stamp]:
        return {key: stamp for key, (_path, stamp) in self._files.items()}

    @classmethod
    def attach(cls, manifest: Mapping[str, Any]) -> "ShmBlockStore":
        """Open an existing store from its picklable :meth:`manifest`;
        files are mapped on first use."""
        self = cls()
        self.name = manifest["name"]
        self.times = list(manifest["times"])
        self._fields = dict(manifest["fields"])
        self._handles = {int(t): list(hs) for t, hs in manifest["handles"].items()}
        self._files = dict(manifest["files"])
        self._scalars = dict(manifest["scalars"])
        self._budget = _map_budget(len(self._files))
        self.sync(manifest)
        return self

    def manifest(self) -> dict[str, Any]:
        """Everything a worker needs to :meth:`attach`, plain data."""
        return {
            "name": self.name,
            "times": list(self.times),
            "fields": dict(self._fields),
            "handles": {t: list(hs) for t, hs in self._handles.items()},
            "files": dict(self._files),
            "scalars": dict(self._scalars),
            **self.worker_state(),
        }

    def worker_state(self) -> dict[str, Any]:
        """What a long-lived worker's copy of this store must learn when
        :attr:`generation` moves: the :meth:`derived_manifest` (files
        written after it attached).  Plain data, for :meth:`sync`."""
        return {"generation": self.generation, "derived": self.derived_manifest()}

    def sync(self, state: Mapping[str, Any]) -> None:
        """Catch up with another process's :meth:`worker_state`."""
        self.sync_derived(state["derived"])
        self.generation = state["generation"]

    def _map(self, path: str, stamp: Stamp | None = None) -> memoryview:
        """This process's map of ``path``, made on first use (read in
        instead beyond the store's budget, see :func:`_map_budget`); a
        block file must still carry the ``stamp`` the parent gave it."""
        buf = self._maps.get(path)
        if buf is None:
            try:
                buf, st = map_file(path, copy=len(self._maps) >= self._budget)
            except (OSError, ValueError) as exc:
                raise FormatError(f"cannot map {path}: {exc}") from exc
            if stamp is not None and file_stamp(st) != tuple(stamp):
                raise FormatError(f"{path} was replaced since its store was opened")
            self._maps[path] = buf
        return buf

    # ----------------------------------------------------------- derived
    def add_derived_fields(self, name: str, arrays: Mapping[Key, np.ndarray]) -> None:
        """Store derived float64 field ``name`` for many blocks at once,
        in one new file: beside the dataset when it can be written,
        else in the store's private directory.

        float64 (not the on-disk ``<f4``) so that commands consuming the
        field produce bytes identical to computing it in place.
        """
        for t, b in arrays:
            if (t, b) not in self._files:
                raise KeyError(f"no block t={t} b={b} in store")
        if not arrays or self._persist(name, arrays):
            return
        path = self._private_dir() / f"{name}-{os.urandom(6).hex()}.f8"
        layout = write_arrays(path, arrays)
        self._map(str(path))
        self._add_derived_file(name, str(path), layout)

    def _persist(self, name: str, arrays: Mapping[Key, np.ndarray]) -> bool:
        # The index names one data file, so it holds every block's array.
        merged = {
            key: self._derived_view(key, name)
            for key, fields in self._derived.items() if name in fields
        }
        merged.update(arrays)
        saved = save_derived(self._dataset, name, merged, self._stamps())
        if saved is None:
            return False
        path, layout = str(saved[0]), saved[1]
        self._map(path)
        self._add_derived_file(name, path, layout, changed=arrays)
        return True

    def _add_derived_file(
        self, name: str, path: str, layout: Layout,
        changed: Iterable[Key] | None = None,
    ) -> None:
        """Point each key of ``layout`` at its array in ``path`` (a later
        file for a key overrides an earlier one) and drop the maps no
        key points into any more.  Only the levels of the ``changed``
        keys (default: all of ``layout``) have new values."""
        self.generation += 1
        for key, (offset, shape) in layout.items():
            self._derived.setdefault(key, {})[name] = (path, offset, tuple(shape))
            self._graft(key, name)
        # Those levels' range tables (if built) predate the new values.
        for t in {t for t, _b in (layout if changed is None else changed)}:
            self._ranges.get(name, {}).pop(t, None)
        live = {path for path, _stamp in self._files.values()}
        live.update(a[0] for fields in self._derived.values() for a in fields.values())
        for stale in self._maps.keys() - live:
            del self._maps[stale]

    @property
    def field_components(self) -> dict[str, int]:
        """Each field the data stores or has derived beside it, with its
        component count (1: a scalar)."""
        components = dict(self._fields)
        for fields in self._derived.values():
            for name, (_path, _offset, shape) in fields.items():
                components[name] = shape[3] if len(shape) == 4 else 1
        return components

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

    def derived_manifest(self) -> list[tuple[str, str, Layout]]:
        """The derived-field entries of :meth:`manifest`, standalone:
        ``(field, path, {key: (offset, shape)})`` per file, each key
        listed under the file that holds its current array.

        Picklable — the pool ships it (in :meth:`worker_state`) until
        every worker has synced it, so long-lived workers map files
        written *after* they attached, without rebuilding the pool.
        """
        files: dict[tuple[str, str], Layout] = {}
        for key, fields in self._derived.items():
            for name, (path, offset, shape) in fields.items():
                files.setdefault((name, path), {})[key] = (offset, shape)
        return [(name, path, layout) for (name, path), layout in files.items()]

    def sync_derived(self, derived: Sequence[tuple[str, str, Mapping]]) -> None:
        """Register the derived files whose keys this process does not
        yet point at."""
        for name, path, layout in derived:
            held = {self._derived.get(k, {}).get(name, ("",))[0] for k in layout}
            if held != {path}:
                self._add_derived_file(name, path, layout)

    def _graft(self, key: Key, fname: str) -> None:
        """Attach derived field ``fname`` to ``key``'s block, if handed
        out already; memo entries that read the field are rebuilt."""
        block = self._blocks.get(key)
        if block is not None:
            block.attach_raw_field(fname, self._derived_view(key, fname))

    def _derived_view(self, key: Key, fname: str) -> np.ndarray:
        path, offset, shape = self._derived[key][fname]
        view = np.frombuffer(
            self._map(path), dtype="<f8", count=math.prod(shape), offset=offset
        )
        return view.reshape(shape)

    # ------------------------------------------------------------ access
    def get_block(self, time_index: int, block_id: int) -> LazyStructuredBlock:
        """The zero-copy lazy block viewing the mapped file.

        One object per key until :meth:`close`: the same block (with
        its float64 upcasts and memoised derived data) answers every
        later call in this process.  The views are read-only (the maps
        are) and so are the upcast copies: a command scribbling on a
        field would otherwise corrupt its own next run's input.
        """
        key = (time_index, block_id)
        block = self._blocks.get(key)
        if block is not None:
            return block
        try:
            path, stamp = self._files[key]
        except KeyError:
            raise KeyError(f"no block t={time_index} b={block_id} in store") from None
        block = block_from_buffer(self._map(path, stamp), lazy=True)
        for fname in self._derived.get(key, {}):
            block.attach_raw_field(fname, self._derived_view(key, fname))
        self._blocks[key] = block
        return block

    # ------------------------------------------------- as a BlockSource
    def get(self, item: ItemName) -> LazyStructuredBlock:
        """The block ``item`` names (:meth:`get_block`)."""
        return self.get_block(*_indices(item))

    def modeled_bytes(self, item: ItemName) -> int:
        """The item's paper-scale size, from its handle's modeled shape."""
        t, b = _indices(item)
        return self._handles[t][b].modeled_points * BYTES_PER_POINT

    def block_ranges(
        self, scalar: str, time_index: int
    ) -> dict[int, tuple[float, float]]:
        """Exact ``(min, max)`` of a stored scalar per block of one level.

        Built on first request by one pass over the stored views (raw
        ``<f4`` payloads or float64 derived arrays — the upcast is
        exact, so these bound the float64 values algorithms see) and
        cached.  A derived scalar is read from its own file, so no
        block file is mapped for it.  Blocks without the scalar, and
        blocks whose range is not finite, have no entry: nothing may be
        concluded about them.  Only the parent reads it, to prune what
        it deals (:func:`~repro.core.commands.may_contain`).
        """
        levels = self._ranges.setdefault(scalar, {})
        spans = levels.get(time_index)
        if spans is None:
            spans = levels[time_index] = {}
            for t, b in self.keys():
                if t != time_index:
                    continue
                if scalar in self._scalars[(t, b)]:
                    raw = self.get_block(t, b).fields.raw_view(scalar)
                elif scalar in self._derived.get((t, b), {}):
                    raw = self._derived_view((t, b), scalar)
                else:
                    continue
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
        return sorted(self._files)

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
    def mapped_files(self) -> list[str]:
        """The block and derived files this process maps."""
        return sorted(self._maps)

    @property
    def nbytes(self) -> int:
        """Bytes of the files this process maps (blocks plus derived)."""
        return sum(buf.nbytes for buf in self._maps.values())

    # ----------------------------------------------------------- cleanup
    def close(self) -> None:
        """Forget this process's blocks and maps (safe to call
        repeatedly); each map is unmapped with its last view."""
        self._blocks.clear()
        self._maps.clear()

    def cleanup(self) -> None:
        """:meth:`close`, and remove the private directory (creator
        only; a live view keeps its unlinked file's pages)."""
        self.close()
        if self._remove is not None:
            self._remove()

    def __enter__(self) -> "ShmBlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()

    def __repr__(self) -> str:
        return (
            f"ShmBlockStore(name={self.name!r}, blocks={len(self._files)}, "
            f"derived={sum(len(f) for f in self._derived.values())}, "
            f"nbytes={self.nbytes})"
        )
