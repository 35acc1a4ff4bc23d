"""Triangle meshes — the geometry streamed back to the client.

A :class:`TriangleMesh` is triangle soup: ``vertices`` has shape
``(3 * n_triangles, 3)`` with consecutive vertex triples forming
triangles, plus optional per-vertex scalar attributes.  Soup (rather
than an indexed mesh) matches what block-wise streamed extraction
produces: fragments arrive independently and are concatenated — unless
they are already consecutive slices of one mesh (:meth:`TriangleMesh.slice`,
how the process pool hands back payloads it gathered into one buffer),
which :meth:`TriangleMesh.merge` returns without copying.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

__all__ = ["TriangleMesh", "triangle_areas", "nondegenerate"]


def triangle_areas(triangles: np.ndarray) -> np.ndarray:
    """Areas ``0.5 * |e1 x e2|`` of triangles given as ``(n, 3, 3)`` corners.

    Bit-identical to ``0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)``:
    the same per-element products and differences ``np.cross`` forms,
    and the sum of squares in the order ``norm``'s row reduction over an
    ``(n, 3)`` array adds them, ``(x*x + y*y) + z*z`` (pinned by
    ``test_triangle_areas_are_bit_equal_to_cross_and_norm``).  Working
    component-major keeps every ufunc on one contiguous row instead of
    an inner loop of length three.
    """
    x = np.ascontiguousarray(triangles.transpose(1, 2, 0))  # (corner, xyz, n)
    e1, e2 = x[1] - x[0], x[2] - x[0]
    cx = e1[1] * e2[2] - e1[2] * e2[1]
    cy = e1[2] * e2[0] - e1[0] * e2[2]
    cz = e1[0] * e2[1] - e1[1] * e2[0]
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


def nondegenerate(triangles: np.ndarray, min_area: float = 1e-14) -> np.ndarray:
    """Mask of the triangles ``(n, 3, 3)`` that are not degenerate.

    The one definition of "degenerate" (zero-area tet faces grazing the
    isovalue), shared by :meth:`TriangleMesh.drop_degenerate` and the
    isosurface kernel, which filters before it builds a mesh.
    """
    return triangle_areas(triangles) > min_area


class TriangleMesh:
    """Immutable-ish triangle soup with optional vertex attributes."""

    def __init__(
        self,
        vertices: np.ndarray | None = None,
        attributes: Mapping[str, np.ndarray] | None = None,
    ):
        if vertices is None:
            vertices = np.empty((0, 3), dtype=np.float64)
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must have shape (3n, 3), got {vertices.shape}")
        if len(vertices) % 3 != 0:
            raise ValueError(
                f"vertex count {len(vertices)} is not a multiple of 3"
            )
        self.vertices = vertices
        self.attributes: dict[str, np.ndarray] = {}
        for name, data in (attributes or {}).items():
            data = np.asarray(data, dtype=np.float64)
            if data.shape[0] != len(vertices):
                raise ValueError(
                    f"attribute {name!r} has {data.shape[0]} values for "
                    f"{len(vertices)} vertices"
                )
            self.attributes[name] = data
        #: ``(mesh, start, stop)`` when this mesh is vertices
        #: ``start:stop`` of ``mesh`` (see :meth:`slice`).
        self.slice_of: tuple[TriangleMesh, int, int] | None = None

    # ------------------------------------------------------------ shape
    @property
    def n_triangles(self) -> int:
        return len(self.vertices) // 3

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def triangles(self) -> np.ndarray:
        """View of shape ``(n_triangles, 3, 3)``."""
        return self.vertices.reshape(-1, 3, 3)

    @property
    def nbytes(self) -> int:
        return self.vertices.nbytes + sum(a.nbytes for a in self.attributes.values())

    def is_empty(self) -> bool:
        return self.n_triangles == 0

    # --------------------------------------------------------- geometry
    def areas(self) -> np.ndarray:
        """Per-triangle areas."""
        return triangle_areas(self.triangles)

    def area(self) -> float:
        return float(self.areas().sum())

    def normals(self) -> np.ndarray:
        """Per-triangle unit normals (zero for degenerate triangles)."""
        t = self.triangles
        n = np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0])
        norms = np.linalg.norm(n, axis=1, keepdims=True)
        return np.divide(n, norms, out=np.zeros_like(n), where=norms > 0)

    def bounds(self) -> np.ndarray | None:
        if self.is_empty():
            return None
        return np.vstack([self.vertices.min(axis=0), self.vertices.max(axis=0)])

    def drop_degenerate(self, min_area: float = 1e-14) -> "TriangleMesh":
        """Remove zero-area triangles (tet faces grazing the isovalue)."""
        mask = np.repeat(nondegenerate(self.triangles, min_area), 3)
        return TriangleMesh(
            self.vertices[mask],
            {n: a[mask] for n, a in self.attributes.items()},
        )

    # --------------------------------------------------------- topology
    def indexed(self, decimals: int = 9) -> tuple[np.ndarray, np.ndarray]:
        """Weld duplicate vertices: returns ``(points, faces)``.

        ``points`` is ``(m, 3)`` unique vertices, ``faces`` is
        ``(n_triangles, 3)`` indices into it.  Welding keys on rounded
        coordinates, which is exact for our extraction (shared cut
        points are computed from identical inputs).
        """
        if self.is_empty():
            return np.empty((0, 3)), np.empty((0, 3), dtype=np.int64)
        rounded = np.round(self.vertices, decimals)
        points, inverse = np.unique(rounded, axis=0, return_inverse=True)
        faces = inverse.reshape(-1, 3)
        return points, faces

    def edge_statistics(self, decimals: int = 9) -> dict[str, int]:
        """Edge-manifoldness census of the welded mesh.

        A closed (watertight) surface has every edge shared by exactly
        two triangles: ``boundary == 0`` and ``nonmanifold == 0``.
        Streamed fragments legitimately have boundary edges; the *merged*
        surface of a closed feature must not.
        """
        _points, faces = self.indexed(decimals)
        if len(faces) == 0:
            return {"edges": 0, "interior": 0, "boundary": 0, "nonmanifold": 0}
        edges = np.concatenate(
            [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]
        )
        edges.sort(axis=1)
        _unique, counts = np.unique(edges, axis=0, return_counts=True)
        return {
            "edges": int(len(counts)),
            "interior": int(np.sum(counts == 2)),
            "boundary": int(np.sum(counts == 1)),
            "nonmanifold": int(np.sum(counts > 2)),
        }

    # ------------------------------------------------------------ merge
    def slice(self, start: int, stop: int) -> "TriangleMesh":
        """Vertices ``start:stop`` (whole triangles) and their attribute
        values as views of this mesh's arrays, remembered as such: a
        :meth:`merge` of consecutive slices covering this mesh gives its
        arrays back without copying them."""
        part = TriangleMesh.__new__(TriangleMesh)  # a valid mesh's rows
        part.vertices = self.vertices[start:stop]
        part.attributes = {name: a[start:stop] for name, a in self.attributes.items()}
        part.slice_of = (self, start, stop)
        return part

    @staticmethod
    def merge(meshes: Iterable["TriangleMesh"]) -> "TriangleMesh":
        """Concatenate fragments (the master worker's / client's job).

        The result keeps the attributes every non-empty fragment has.
        Fragments that are, in order, the consecutive slices of one mesh
        (:meth:`slice`) with its attributes merge to that mesh's arrays,
        uncopied; any other list is concatenated into new arrays.
        """
        meshes = [m for m in meshes if m is not None]
        if not meshes:
            return TriangleMesh()
        non_empty = [m for m in meshes if not m.is_empty()]
        if not non_empty:
            return TriangleMesh()
        whole = _whole_of(non_empty)
        if whole is not None:
            return TriangleMesh(whole.vertices, dict(whole.attributes))
        vertices = np.concatenate([m.vertices for m in non_empty])
        names = set(non_empty[0].attributes)
        for m in non_empty[1:]:
            names &= set(m.attributes)
        attributes = {
            n: np.concatenate([m.attributes[n] for m in non_empty]) for n in names
        }
        return TriangleMesh(vertices, attributes)

    def __repr__(self) -> str:
        return f"TriangleMesh(n_triangles={self.n_triangles}, attrs={sorted(self.attributes)})"


def _whole_of(parts: list[TriangleMesh]) -> TriangleMesh | None:
    """The mesh ``parts`` tile in order, slice after slice, when each
    carries exactly that mesh's attributes among the ones all share."""
    if parts[0].slice_of is None:
        return None
    whole, pos = parts[0].slice_of[0], 0
    names = set(whole.attributes)
    for part in parts:
        if part.slice_of is None:
            return None
        base, start, stop = part.slice_of
        if base is not whole or start != pos:
            return None
        pos = stop
    if pos != whole.n_vertices:
        return None
    shared = set.intersection(*(set(p.attributes) for p in parts))
    return whole if shared == names else None
