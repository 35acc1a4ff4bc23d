"""Binary block-file format.

A PLOT3D-like single-block container: a fixed header, a field directory
and raw little-endian arrays.  Coordinates are stored as float64 (grid
fidelity matters for Newton point location), fields as float32 (the
usual precision of exported CFD solutions, and what the paper-scale
size accounting assumes).

Layout::

    magic    4s   b"VIRB"
    version  u32  1
    block_id u32
    time     u32
    ni nj nk u32 x3
    nfields  u32
    -- per field --
    name_len u32, name utf-8, ncomp u32
    -- payloads --
    coords float64[ni*nj*nk*3]
    each field float32[ni*nj*nk*ncomp]

Two deserialization modes exist everywhere bytes come in:

* ``lazy=False`` (default) — the historical behavior: every payload is
  copied out of the buffer and fields are upcast to float64 eagerly.
  Arrays are writable and independent of the source buffer.
* ``lazy=True`` — zero-copy: coordinates and fields are *read-only*
  ``np.frombuffer`` views straight into the source buffer (bytes, mmap
  or shared memory) and fields stay ``<f4`` until first accessed
  through the returned :class:`~repro.grids.block.LazyStructuredBlock`,
  which upcasts per field on demand.  Resident bytes match the file,
  not double it.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from ..grids.block import LazyStructuredBlock, StructuredBlock

__all__ = [
    "FormatError",
    "write_block",
    "read_block",
    "block_from_bytes",
    "block_from_buffer",
    "field_directory",
]

MAGIC = b"VIRB"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIIII")
_U32 = struct.Struct("<I")


def _field_specs(block: StructuredBlock) -> list[tuple[str, bytes, int]]:
    specs = []
    for name in sorted(block.fields):
        data = block.fields[name]
        ncomp = 1 if data.ndim == 3 else data.shape[-1]
        specs.append((name, name.encode("utf-8"), ncomp))
    return specs


class FormatError(ValueError):
    """Raised for malformed or truncated block files."""


def write_block(fh: BinaryIO, block: StructuredBlock) -> int:
    """Serialize ``block``; returns the number of bytes written."""
    ni, nj, nk = block.shape
    specs = _field_specs(block)
    written = 0
    written += fh.write(
        _HEADER.pack(
            MAGIC, VERSION, block.block_id, block.time_index, ni, nj, nk, len(specs)
        )
    )
    for name, raw, ncomp in specs:
        written += fh.write(_U32.pack(len(raw)))
        written += fh.write(raw)
        written += fh.write(_U32.pack(ncomp))
    written += fh.write(np.ascontiguousarray(block.coords, dtype="<f8").tobytes())
    for name, _raw, _ncomp in specs:
        written += fh.write(
            np.ascontiguousarray(block.fields[name], dtype="<f4").tobytes()
        )
    return written


def _parse_directory(buf, offset: int, nfields: int, total: int):
    specs: list[tuple[str, int]] = []
    for _ in range(nfields):
        if offset + 4 > total:
            raise FormatError("truncated block file: directory cut short")
        (name_len,) = _U32.unpack_from(buf, offset)
        offset += 4
        if offset + name_len + 4 > total:
            raise FormatError("truncated block file: directory cut short")
        name = bytes(buf[offset : offset + name_len]).decode("utf-8")
        offset += name_len
        (ncomp,) = _U32.unpack_from(buf, offset)
        offset += 4
        if ncomp not in (1, 3):
            raise FormatError(f"field {name!r} has unsupported ncomp {ncomp}")
        specs.append((name, ncomp))
    return specs, offset


def _parse_header(buf):
    """``(block_id, time_index, (ni, nj, nk), field specs, payload offset)``."""
    total = len(buf)
    if total < _HEADER.size:
        raise FormatError(
            f"truncated block file: wanted {_HEADER.size} bytes, got {total}"
        )
    magic, version, block_id, time_index, ni, nj, nk, nfields = _HEADER.unpack_from(
        buf, 0
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, not a block file")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    specs, offset = _parse_directory(buf, _HEADER.size, nfields, total)
    return block_id, time_index, (ni, nj, nk), specs, offset


def field_directory(buf) -> list[tuple[str, int]]:
    """``(name, ncomp)`` of every field a serialized block stores.

    Reads the header and field directory only: no array is viewed.
    """
    return _parse_header(buf)[3]


def block_from_buffer(buf, lazy: bool = False) -> StructuredBlock:
    """Deserialize one block from any buffer (bytes, a map, a slice).

    With ``lazy=True`` every array is a zero-copy ``np.frombuffer``
    view into ``buf`` — read-only, ``<f4`` fields upcast on access.
    Trailing bytes beyond the block are ignored.
    """
    total = len(buf)
    block_id, time_index, (ni, nj, nk), specs, offset = _parse_header(buf)
    npts = ni * nj * nk
    coords_bytes = npts * 3 * 8
    if offset + coords_bytes > total:
        raise FormatError(
            f"truncated block file: wanted {coords_bytes} coordinate bytes"
        )
    coords = np.frombuffer(buf, dtype="<f8", count=npts * 3, offset=offset).reshape(
        ni, nj, nk, 3
    )
    offset += coords_bytes
    raw_fields: dict[str, np.ndarray] = {}
    for name, ncomp in specs:
        nbytes = npts * ncomp * 4
        if offset + nbytes > total:
            raise FormatError(
                f"truncated block file: wanted {nbytes} bytes for field {name!r}"
            )
        flat = np.frombuffer(buf, dtype="<f4", count=npts * ncomp, offset=offset)
        shape = (ni, nj, nk) if ncomp == 1 else (ni, nj, nk, 3)
        raw_fields[name] = flat.reshape(shape)
        offset += nbytes
    if lazy:
        return LazyStructuredBlock(
            coords, raw_fields, block_id=block_id, time_index=time_index
        )
    return StructuredBlock(
        coords.astype(np.float64),
        {name: raw.astype(np.float64) for name, raw in raw_fields.items()},
        block_id=block_id,
        time_index=time_index,
    )


def read_block(fh: BinaryIO, lazy: bool = False) -> StructuredBlock:
    """Deserialize one block from the rest of a binary stream (see
    :func:`block_from_buffer`; lazy views alias the bytes read)."""
    return block_from_buffer(fh.read(), lazy=lazy)


def block_from_bytes(data: bytes, lazy: bool = False) -> StructuredBlock:
    return block_from_buffer(data, lazy=lazy)
