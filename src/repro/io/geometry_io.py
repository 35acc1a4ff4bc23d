"""Binary serialization of extracted geometry.

Results that took hundreds of simulated seconds to extract are worth
keeping: this module writes :class:`~repro.viz.mesh.TriangleMesh` and
:class:`~repro.viz.polyline.PolylineSet` objects to a compact binary
container (float32 payloads — the wire format the cost model's
``result_wire_factor`` assumes).

Layout::

    magic    4s   b"VIRG"
    version  u32  1
    kind     u32  1 = TriangleMesh, 2 = PolylineSet
    n_vertices u32, n_attrs u32, [n_offsets u32 if polyline]
    -- per attribute: name_len u32, name utf-8 --
    vertices float32[n_vertices * 3]
    [offsets u64[n_offsets] if polyline]
    each attribute float32[n_vertices]
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO

import numpy as np

from ..viz.mesh import TriangleMesh
from ..viz.polyline import PolylineSet
from .format import FormatError

__all__ = [
    "write_geometry",
    "read_geometry",
    "geometry_to_bytes",
    "geometry_from_bytes",
]

_MAGIC = b"VIRG"
_VERSION = 1
_KIND_MESH = 1
_KIND_POLYLINES = 2
_HEADER = struct.Struct("<4sIII")


def write_geometry(fh: BinaryIO, geometry: TriangleMesh | PolylineSet) -> int:
    """Serialize a geometry object; returns bytes written."""
    if isinstance(geometry, TriangleMesh):
        kind = _KIND_MESH
    elif isinstance(geometry, PolylineSet):
        kind = _KIND_POLYLINES
    else:
        raise TypeError(f"cannot serialize {type(geometry).__name__}")
    names = sorted(geometry.attributes)
    written = fh.write(_HEADER.pack(_MAGIC, _VERSION, kind, geometry.n_vertices))
    written += fh.write(struct.pack("<I", len(names)))
    if kind == _KIND_POLYLINES:
        written += fh.write(struct.pack("<I", len(geometry.offsets)))
    for name in names:
        raw = name.encode("utf-8")
        written += fh.write(struct.pack("<I", len(raw)))
        written += fh.write(raw)
    # Arrays go out as buffers: no bytes copy of each cast array.
    written += fh.write(np.ascontiguousarray(geometry.vertices, dtype="<f4"))
    if kind == _KIND_POLYLINES:
        written += fh.write(np.ascontiguousarray(geometry.offsets, dtype="<u8"))
    for name in names:
        written += fh.write(
            np.ascontiguousarray(geometry.attributes[name], dtype="<f4")
        )
    return written


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated geometry file: wanted {n} bytes, got {len(data)}")
    return data


def read_geometry(fh: BinaryIO) -> TriangleMesh | PolylineSet:
    """Deserialize one geometry object."""
    magic, version, kind, n_vertices = _HEADER.unpack(_read_exact(fh, _HEADER.size))
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, not a geometry file")
    if version != _VERSION:
        raise FormatError(f"unsupported geometry version {version}")
    if kind not in (_KIND_MESH, _KIND_POLYLINES):
        raise FormatError(f"unknown geometry kind {kind}")
    (n_attrs,) = struct.unpack("<I", _read_exact(fh, 4))
    n_offsets = 0
    if kind == _KIND_POLYLINES:
        (n_offsets,) = struct.unpack("<I", _read_exact(fh, 4))
    names = []
    for _ in range(n_attrs):
        (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
        names.append(_read_exact(fh, name_len).decode("utf-8"))
    vertices = np.frombuffer(
        _read_exact(fh, n_vertices * 3 * 4), dtype="<f4"
    ).astype(np.float64).reshape(n_vertices, 3)
    offsets = None
    if kind == _KIND_POLYLINES:
        offsets = np.frombuffer(
            _read_exact(fh, n_offsets * 8), dtype="<u8"
        ).astype(np.int64)
    attributes = {}
    for name in names:
        attributes[name] = np.frombuffer(
            _read_exact(fh, n_vertices * 4), dtype="<f4"
        ).astype(np.float64)
    if kind == _KIND_MESH:
        return TriangleMesh(vertices, attributes)
    return PolylineSet(vertices, offsets.tolist(), attributes)


def geometry_to_bytes(geometry) -> bytes:
    buf = io.BytesIO()
    write_geometry(buf, geometry)
    return buf.getvalue()


def geometry_from_bytes(data: bytes):
    return read_geometry(io.BytesIO(data))
