"""Derived fields persisted beside their dataset: the DMS's disk tier.

The paper's data management system keeps named data items in two cache
tiers, main memory (L1) and local disk (L2).  A field derived from a
dataset's blocks — λ2 of the velocity field, say — is the same on every
open, so :func:`save_derived` writes it once next to the blocks and
:func:`load_derived` names it to every later open, which maps it in
place instead of the derivation paying again.

Layout (one index and one data file per field)::

    <root>/derived/
      lambda2.json             index: data file name, one entry per block
      lambda2-<token>.f8       the blocks' float64 arrays, 64-byte aligned

Each index entry records a block's ``(time, block)``, the offset and
shape of its array, and the size, ``mtime_ns`` and inode of the block
file it was derived from.  An entry is served only while all of these
hold: the block file is unchanged, the shape is the block's shape in
``meta.json``, and the data file holds the whole array.  Any other entry
— and any index that does not parse — is ignored, never raised: the
caller derives those blocks again and rewrites the field.
:func:`~repro.io.dataset_io.write_dataset` removes the directory too.

Writes are atomic: the data file and then the index are written under
temporary names and ``os.replace``'d into place, so a reader sees the
old pair or the new one, and a data file is never written in place
once named, so a reader's map of it stays valid.  A directory that
cannot be written leaves the field unpersisted; the caller keeps it
elsewhere.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataset_io import DERIVED_DIR, DatasetStore, Stamp

__all__ = ["Layout", "load_derived", "save_derived", "write_arrays"]

Key = tuple[int, int]
#: where each block's array lies in a data file: ``{key: (offset, shape)}``.
Layout = dict[Key, tuple[int, tuple[int, ...]]]


def load_derived(
    store: DatasetStore, stamps: Mapping[Key, Stamp]
) -> dict[str, tuple[Path, Layout]]:
    """Every persisted field's data file and the layout of its valid
    arrays for the blocks in ``stamps``, by field name.

    ``stamps`` are the block files' stamps as the caller mapped them;
    an entry recorded against any other stamp is stale.
    """
    folder = store.root / DERIVED_DIR
    if not folder.is_dir():
        return {}
    shapes = [tuple(rec["shape"]) for rec in store.meta["blocks"]]
    fields = {}
    for index_path in sorted(folder.glob("*.json")):
        try:
            index = json.loads(index_path.read_text())
            path = folder / Path(index["data"]).name
            size = path.stat().st_size
            layout = {}
            for entry in index["blocks"]:
                key = (int(entry["time"]), int(entry["block"]))
                shape = tuple(int(n) for n in entry["shape"])
                offset = int(entry["offset"])
                recorded = (entry["size"], entry["mtime_ns"], entry["ino"])
                if (
                    stamps.get(key) != recorded
                    or shape[:3] != shapes[key[1]]
                    or offset < 0
                    or offset + 8 * math.prod(shape) > size
                ):
                    continue
                layout[key] = (offset, shape)
            if layout:
                fields[index["field"]] = (path, layout)
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            continue
    return fields


def write_arrays(path: Path, arrays: Mapping[Key, np.ndarray]) -> Layout:
    """Write ``arrays`` float64 in key order to a new file at ``path``,
    each starting on a cache line of the mapped file; where each lies."""
    layout, offset = {}, 0
    with open(path, "xb") as fh:
        for key in sorted(arrays):
            data = np.ascontiguousarray(arrays[key], dtype="<f8")
            fh.write(bytes(-offset % 64))
            offset += -offset % 64
            fh.write(data.data)
            layout[key] = (offset, data.shape)
            offset += data.nbytes
    return layout


def save_derived(
    store: DatasetStore,
    name: str,
    arrays: Mapping[Key, np.ndarray],
    stamps: Mapping[Key, Stamp],
) -> tuple[Path, Layout] | None:
    """Persist field ``name``'s per-block ``arrays`` against the block
    files' ``stamps``; the data file and its layout, or ``None`` if the
    directory could not be written (nothing is left behind then)."""
    folder = store.root / DERIVED_DIR
    token = os.urandom(6).hex()
    data_path = folder / f"{name}-{token}.f8"
    index_path = folder / f"{name}.json"
    written: list[Path] = []
    try:
        folder.mkdir(exist_ok=True)
        previous = _data_name(index_path)
        tmp = folder / f".{data_path.name}.tmp"
        written.append(tmp)
        layout = write_arrays(tmp, {k: a for k, a in arrays.items() if k in stamps})
        os.replace(tmp, data_path)
        written[-1] = data_path
        entries = [
            {
                "time": key[0], "block": key[1], "offset": offset,
                "shape": list(shape), "size": stamps[key][0],
                "mtime_ns": stamps[key][1], "ino": stamps[key][2],
            }
            for key, (offset, shape) in layout.items()
        ]
        tmp = folder / f".{name}-{token}.json.tmp"
        written.append(tmp)
        tmp.write_text(
            json.dumps({"field": name, "data": data_path.name, "blocks": entries})
        )
        os.replace(tmp, index_path)
    except OSError:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        return None
    if previous and previous != data_path.name:
        try:
            (folder / previous).unlink()
        except OSError:
            pass
    return data_path, layout


def _data_name(index_path: Path) -> str | None:
    """The data file an existing index names, if it parses."""
    try:
        return Path(json.loads(index_path.read_text())["data"]).name
    except (OSError, ValueError, KeyError, TypeError):
        return None
