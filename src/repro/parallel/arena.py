"""Result arenas: mesh payloads come back through shared memory, and
land once, in the run's merged mesh.

A share's triangles used to be pickled through the pool's result pipe
while the parent waited.  With an arena the worker writes its mesh
payloads into one shared segment column by column — every mesh's
vertices back to back, then each attribute's values over the meshes
that carry it — and the pipe carries only :class:`PackedMeshes`:
counts, names and trailing shapes.  So one work unit's meshes are one
contiguous run of every column.

The parent then gathers every work unit's meshes, in canonical task
order, straight into one run-sized mesh (:func:`gather_meshes`): one
concatenation per column of each unit's run out of its slot's arena
(or, for payloads that came back pickled, of the unpickled arrays).  Each payload
becomes a :meth:`~repro.viz.mesh.TriangleMesh.slice` of that mesh, so
merging them in the same order copies nothing again, and no private
copy of an arena outlives the gather — the arena is reused by the
next run.  Attributes that not every non-empty mesh carries have no
column in the merged mesh; such a payload keeps a private copy of
them.

Only lists made purely of triangle meshes pack; anything else
(pathlines, nothing at all, more bytes than the arena holds) stays on
the pickled return, byte for byte as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Sequence

import numpy as np

from ..viz.mesh import TriangleMesh

__all__ = [
    "MeshRun",
    "PackedMeshes",
    "gather_meshes",
    "meshes_nbytes",
    "pack_meshes",
    "payload_nbytes",
]

_F8 = np.dtype(np.float64)

#: an attribute column: its name and trailing shape (``()`` for the
#: usual per-vertex scalar).
Key = tuple[str, tuple[int, ...]]


@dataclass
class PackedMeshes:
    """What the pipe carries for payloads left in an arena."""

    #: per mesh, in payload order: vertex count, then each attribute's
    #: name and trailing shape.
    layout: list[tuple[int, tuple[Key, ...]]]
    #: bytes used at the start of the arena.
    nbytes: int

    def runs(self, buf: memoryview, counts: Sequence[int]) -> list["MeshRun"]:
        """Views of the arena, one :class:`MeshRun` per ``counts``
        consecutive meshes (a work unit's payloads each)."""
        data = np.frombuffer(buf, dtype=_F8, count=self.nbytes // _F8.itemsize)
        bounds = [0, *accumulate(counts)]
        rows = [0, *accumulate(n for n, _keys in self.layout)]
        start = 3 * rows[-1]
        columns: dict[Key, tuple[int, list[int]]] = {}
        for key in _columns(self.layout):
            sizes = (n * math.prod(key[1]) if key in keys else 0 for n, keys in self.layout)
            ends = [0, *accumulate(sizes)]
            columns[key] = (start, ends)
            start += ends[-1]
        return [
            MeshRun(
                self.layout[lo:hi],
                data[3 * rows[lo] : 3 * rows[hi]].reshape(-1, 3),
                {
                    key: data[base + ends[lo] : base + ends[hi]]
                    for key, (base, ends) in columns.items()
                },
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]


@dataclass
class MeshRun:
    """Consecutive mesh payloads whose arrays lie back to back per column."""

    #: per mesh, as in :attr:`PackedMeshes.layout`.
    layout: list[tuple[int, tuple[Key, ...]]]
    #: ``(rows, 3)``: the meshes' vertices in order.
    vertices: np.ndarray
    #: flat values of each attribute over the meshes that carry it.
    columns: dict[Key, np.ndarray]

    @classmethod
    def of(cls, mesh: TriangleMesh) -> "MeshRun":
        """A run of one (unpickled) mesh over its own arrays."""
        keys = tuple((name, a.shape[1:]) for name, a in mesh.attributes.items())
        return cls(
            [(mesh.n_vertices, keys)],
            mesh.vertices,
            {(name, a.shape[1:]): a.reshape(-1) for name, a in mesh.attributes.items()},
        )


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


def _columns(layout: Sequence[tuple[int, tuple[Key, ...]]]) -> list[Key]:
    """Attribute columns in order of first appearance."""
    return list(dict.fromkeys(key for _n, keys in layout for key in keys))


def meshes_nbytes(payloads: Sequence[Any]) -> int | None:
    """Arena bytes ``payloads`` need; ``None`` if they cannot pack
    (something other than a float64 triangle mesh among them)."""
    total = 0
    for mesh in payloads:
        if type(mesh) is not TriangleMesh:
            return None
        for arr in (mesh.vertices, *mesh.attributes.values()):
            if arr.dtype != _F8:
                return None
            total += arr.nbytes
    return total


def pack_meshes(payloads: Sequence[Any], buf: memoryview) -> PackedMeshes | None:
    """Write ``payloads`` into ``buf`` column by column; ``None`` if
    they do not fit or are not all meshes (nothing is written then)."""
    nbytes = meshes_nbytes(payloads)
    if not nbytes or nbytes > len(buf):
        return None
    out = np.frombuffer(buf, dtype=_F8, count=nbytes // _F8.itemsize)
    layout = [
        (mesh.n_vertices, tuple((name, a.shape[1:]) for name, a in mesh.attributes.items()))
        for mesh in payloads
    ]
    pos = 0
    for mesh in payloads:
        out[pos : pos + mesh.vertices.size] = mesh.vertices.reshape(-1)
        pos += mesh.vertices.size
    for key in _columns(layout):
        for mesh, (_n, keys) in zip(payloads, layout):
            if key in keys:
                arr = mesh.attributes[key[0]]
                out[pos : pos + arr.size] = arr.reshape(-1)
                pos += arr.size
    return PackedMeshes(layout, nbytes)


def gather_meshes(tasks: Sequence[Sequence[Any]]) -> list[list[Any]]:
    """Every task's payloads with each mesh moved into one merged mesh.

    ``tasks`` holds each work unit's payloads in canonical order, a
    :class:`MeshRun` standing for its meshes in an arena.  Every mesh
    (a run's, or a payload that is a float64
    :class:`~repro.viz.mesh.TriangleMesh`) is copied once, in that
    order, into one new mesh with the attributes every non-empty mesh
    carries, and comes back as its :meth:`~repro.viz.mesh.TriangleMesh.slice`;
    other payloads come back as they are.
    """
    items = [
        [MeshRun.of(p) if meshes_nbytes([p]) is not None else p for p in payloads]
        for payloads in tasks
    ]
    runs = [item for payloads in items for item in payloads if isinstance(item, MeshRun)]
    if not runs:
        return items
    layout = [entry for run in runs for entry in run.layout]
    carried = [set(keys) for n, keys in layout if n]
    common = [
        key for key in _columns(layout)
        if carried and all(key in keys for keys in carried)
    ]
    total = sum(n for n, _keys in layout)
    vertices = np.concatenate([run.vertices for run in runs], out=np.empty((total, 3)))
    flat = {
        key: np.concatenate(
            [run.columns[key] for run in runs if key in run.columns],
            out=np.empty(total * math.prod(key[1])),
        )
        for key in common
    }
    whole = TriangleMesh(
        vertices, {name: flat[(name, tail)].reshape(total, *tail) for name, tail in common}
    )
    pos = 0
    out: list[list[Any]] = []
    for payloads in items:
        gathered: list[Any] = []
        for item in payloads:
            if isinstance(item, MeshRun):
                gathered.extend(_slices(whole, item, pos, common))
                pos += len(item.vertices)
            else:
                gathered.append(item)
        out.append(gathered)
    return out


def _slices(
    whole: TriangleMesh, run: MeshRun, pos: int, common: list[Key]
) -> list[TriangleMesh]:
    """``run``'s meshes as slices of ``whole`` from row ``pos``, each
    with its own attributes in its own order (private copies of those
    ``whole`` has no column for)."""
    meshes = []
    used = dict.fromkeys(run.columns, 0)
    for n, keys in run.layout:
        part = whole.slice(pos, pos + n)
        if list(keys) != common:
            own = {}
            for key in keys:
                name, tail = key
                if key in common:
                    own[name] = part.attributes[name]
                else:
                    size = n * math.prod(tail)
                    column = run.columns[key][used[key] : used[key] + size]
                    own[name] = column.reshape(n, *tail).copy()
            part.attributes = own
        for key in keys:
            used[key] += n * math.prod(key[1])
        meshes.append(part)
        pos += n
    return meshes
