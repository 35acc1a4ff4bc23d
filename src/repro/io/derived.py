"""Derived fields persisted beside their dataset: the DMS's disk tier.

The paper's data management system keeps named data items in two cache
tiers, main memory (L1) and local disk (L2).  A field derived from a
dataset's blocks — λ2 of the velocity field, say — is the same on every
open, so :func:`save_derived` writes it once next to the blocks and
:func:`load_derived` hands it back to every later open instead of the
derivation paying again.

Layout (one index and one data file per field)::

    <root>/derived/
      lambda2.json             index: data file name, one entry per block
      lambda2-<token>.f8       the blocks' float64 arrays, back to back

Each index entry records a block's ``(time, block)``, the offset and
shape of its array, and the size and ``mtime_ns`` of the block file it
was derived from.  An entry is served only while all of these hold: the
block file is unchanged, the shape is the block's shape in
``meta.json``, and the data file holds the whole array.  Any other entry
— and any index that does not parse — is ignored, never raised: the
caller derives those blocks again and rewrites the field.
:func:`~repro.io.dataset_io.write_dataset` removes the directory,
because a block rewritten within one mtime tick would otherwise pass.

Writes are atomic: the data file and then the index are written under
temporary names and ``os.replace``'d into place, so a reader sees the
old pair or the new one.  A directory that cannot be written leaves the
field unpersisted; the caller still has it in memory.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataset_io import DERIVED_DIR, DatasetStore

__all__ = ["block_stamp", "load_derived", "save_derived"]

Key = tuple[int, int]
#: ``(st_size, st_mtime_ns)`` of a block file.
Stamp = tuple[int, int]


def block_stamp(store: DatasetStore, time_index: int, block_id: int) -> Stamp:
    """What an index entry records of the block file it derives from."""
    st = os.stat(store.block_path(time_index, block_id))
    return st.st_size, st.st_mtime_ns


def load_derived(
    store: DatasetStore, stamps: Mapping[Key, Stamp]
) -> dict[str, dict[Key, np.ndarray]]:
    """Every persisted field's valid arrays for the blocks in
    ``stamps``, by field name (read-only views over the mapped file).

    ``stamps`` are the block files' stamps as the caller read them; an
    entry recorded against any other stamp is stale.
    """
    folder = store.root / DERIVED_DIR
    if not folder.is_dir():
        return {}
    shapes = [tuple(rec["shape"]) for rec in store.meta["blocks"]]
    fields = {}
    for index_path in sorted(folder.glob("*.json")):
        try:
            index = json.loads(index_path.read_text())
            data = _map_readonly(folder / Path(index["data"]).name)
            arrays = {}
            for entry in index["blocks"]:
                key = (int(entry["time"]), int(entry["block"]))
                shape = tuple(int(n) for n in entry["shape"])
                offset = int(entry["offset"])
                if (
                    stamps.get(key) != (entry["size"], entry["mtime_ns"])
                    or shape[:3] != shapes[key[1]]
                    or offset < 0
                    or offset + 8 * math.prod(shape) > len(data)
                ):
                    continue
                view = np.frombuffer(
                    data, dtype="<f8", count=math.prod(shape), offset=offset
                )
                arrays[key] = view.reshape(shape)
            if arrays:
                fields[index["field"]] = arrays
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            continue
    return fields


def _map_readonly(path: Path) -> memoryview:
    with open(path, "rb") as fh:
        return memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))


def save_derived(
    store: DatasetStore,
    name: str,
    arrays: Mapping[Key, np.ndarray],
    stamps: Mapping[Key, Stamp],
) -> bool:
    """Persist field ``name``'s per-block ``arrays`` against the block
    files' ``stamps``; ``False`` if the directory could not be written
    (nothing is left behind then)."""
    folder = store.root / DERIVED_DIR
    token = os.urandom(6).hex()
    data_name = f"{name}-{token}.f8"
    keys = sorted(k for k in arrays if k in stamps)
    entries, offset = [], 0
    for key in keys:
        arr = arrays[key]
        size, mtime_ns = stamps[key]
        entries.append({
            "time": key[0], "block": key[1], "offset": offset,
            "shape": list(arr.shape), "size": size, "mtime_ns": mtime_ns,
        })
        offset += 8 * arr.size
    index = {"field": name, "data": data_name, "blocks": entries}
    index_path = folder / f"{name}.json"
    written: list[Path] = []
    try:
        folder.mkdir(exist_ok=True)
        previous = _data_name(index_path)
        tmp = folder / f".{data_name}.tmp"
        written.append(tmp)
        with open(tmp, "wb") as fh:
            for key in keys:
                fh.write(np.ascontiguousarray(arrays[key], dtype="<f8").data)
        os.replace(tmp, folder / data_name)
        written[-1] = folder / data_name
        tmp = folder / f".{name}-{token}.json.tmp"
        written.append(tmp)
        tmp.write_text(json.dumps(index))
        os.replace(tmp, index_path)
    except OSError:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        return False
    if previous and previous != data_name:
        try:
            (folder / previous).unlink()
        except OSError:
            pass
    return True


def _data_name(index_path: Path) -> str | None:
    """The data file an existing index names, if it parses."""
    try:
        return Path(json.loads(index_path.read_text())["data"]).name
    except (OSError, ValueError, KeyError, TypeError):
        return None
