"""Result arenas: mesh payloads come back through shared memory.

A share's triangles used to be pickled through the pool's result pipe
while the parent waited.  With an arena the worker writes every mesh's
vertex and attribute arrays back to back into one shared segment and
the pipe carries only :class:`PackedMeshes` — counts and names; the
parent copies the used bytes out once and slices the same
:class:`~repro.viz.mesh.TriangleMesh` list back out of that copy.

Only lists made purely of triangle meshes pack; anything else
(pathlines, nothing at all, more bytes than the arena holds) stays on
the pickled return, byte for byte as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..viz.mesh import TriangleMesh

__all__ = [
    "PackedMeshes",
    "meshes_nbytes",
    "pack_meshes",
    "payload_nbytes",
    "unpack_meshes",
]

_F8 = np.dtype(np.float64)


@dataclass
class PackedMeshes:
    """What the pipe carries for payloads left in an arena."""

    #: per mesh, in payload order: vertex count, then each attribute's
    #: name and trailing shape (``()`` for the usual per-vertex scalar).
    layout: list[tuple[int, tuple[tuple[str, tuple[int, ...]], ...]]]
    #: bytes used at the start of the arena.
    nbytes: int


def payload_nbytes(payload: Any) -> int:
    """Array bytes of one payload, whatever its type: meshes and
    polylines report theirs, pathlines are plain records of arrays."""
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is None:
        nbytes = sum(
            v.nbytes
            for v in getattr(payload, "__dict__", {}).values()
            if isinstance(v, np.ndarray)
        )
    return int(nbytes)


def _arrays(mesh: TriangleMesh) -> list[np.ndarray]:
    return [mesh.vertices, *mesh.attributes.values()]


def meshes_nbytes(payloads: Sequence[Any]) -> int | None:
    """Arena bytes ``payloads`` need; ``None`` if they cannot pack
    (something other than a float64 triangle mesh among them)."""
    total = 0
    for mesh in payloads:
        if type(mesh) is not TriangleMesh:
            return None
        for arr in _arrays(mesh):
            if arr.dtype != _F8:
                return None
            total += arr.nbytes
    return total


def pack_meshes(payloads: Sequence[Any], buf: memoryview) -> PackedMeshes | None:
    """Write ``payloads`` into ``buf``; ``None`` if they do not fit or
    are not all meshes (nothing is written then)."""
    nbytes = meshes_nbytes(payloads)
    if not nbytes or nbytes > len(buf):
        return None
    out = np.frombuffer(buf, dtype=_F8, count=nbytes // _F8.itemsize)
    layout = []
    pos = 0
    for mesh in payloads:
        for arr in _arrays(mesh):
            out[pos : pos + arr.size] = arr.reshape(-1)
            pos += arr.size
        layout.append((
            mesh.n_vertices,
            tuple((name, a.shape[1:]) for name, a in mesh.attributes.items()),
        ))
    return PackedMeshes(layout, nbytes)


def unpack_meshes(packed: PackedMeshes, buf: memoryview) -> list[TriangleMesh]:
    """The packed payload list, rebuilt over one private copy of the
    arena's used bytes (the arena itself is reused by the next run)."""
    data = np.frombuffer(buf, dtype=_F8, count=packed.nbytes // _F8.itemsize).copy()
    meshes = []
    pos = 0
    for n_vertices, attrs in packed.layout:
        vertices, pos = _take(data, pos, (n_vertices, 3))
        attributes = {}
        for name, tail in attrs:
            attributes[name], pos = _take(data, pos, (n_vertices, *tail))
        meshes.append(TriangleMesh(vertices, attributes))
    return meshes


def _take(data: np.ndarray, pos: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The next ``shape`` array of ``data`` from ``pos``, and where it ends."""
    end = pos + math.prod(shape)
    return data[pos:end].reshape(shape), end
