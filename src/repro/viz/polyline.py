"""Polyline geometry for particle traces.

Pathlines and streaklines arrive at the client as point
sequences; this module turns them into renderable polyline sets with
per-vertex attributes (time, speed) and supports the same merge
semantics as :class:`~repro.viz.mesh.TriangleMesh`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["PolylineSet"]


class PolylineSet:
    """A batch of polylines in one vertex buffer.

    ``vertices`` is ``(n, 3)``; ``offsets`` holds the start index of
    each polyline plus a final sentinel ``n`` (CSR-style), so line ``i``
    is ``vertices[offsets[i]:offsets[i+1]]``.
    """

    def __init__(
        self,
        vertices: np.ndarray | None = None,
        offsets: Sequence[int] | None = None,
        attributes: Mapping[str, np.ndarray] | None = None,
    ):
        if vertices is None:
            vertices = np.empty((0, 3), dtype=np.float64)
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {vertices.shape}")
        if offsets is None:
            offsets = [0, len(vertices)] if len(vertices) else [0]
        offsets = list(int(o) for o in offsets)
        if offsets[0] != 0 or offsets[-1] != len(vertices):
            raise ValueError(
                f"offsets must start at 0 and end at {len(vertices)}, got {offsets}"
            )
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must be non-decreasing")
        self.vertices = vertices
        self.offsets = offsets
        self.attributes: dict[str, np.ndarray] = {}
        for name, data in (attributes or {}).items():
            data = np.asarray(data, dtype=np.float64)
            if data.shape[0] != len(vertices):
                raise ValueError(
                    f"attribute {name!r} has {data.shape[0]} values for "
                    f"{len(vertices)} vertices"
                )
            self.attributes[name] = data

    # ------------------------------------------------------------ shape
    @property
    def n_lines(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def line(self, index: int) -> np.ndarray:
        if not 0 <= index < self.n_lines:
            raise IndexError(f"line {index} out of range 0..{self.n_lines - 1}")
        return self.vertices[self.offsets[index] : self.offsets[index + 1]]

    def line_attribute(self, name: str, index: int) -> np.ndarray:
        return self.attributes[name][self.offsets[index] : self.offsets[index + 1]]

    def is_empty(self) -> bool:
        return self.n_vertices == 0

    # --------------------------------------------------------- geometry
    def lengths(self) -> np.ndarray:
        """Arc length per polyline."""
        out = np.zeros(self.n_lines)
        for i in range(self.n_lines):
            pts = self.line(i)
            if len(pts) >= 2:
                out[i] = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        return out

    def bounds(self) -> np.ndarray | None:
        if self.is_empty():
            return None
        return np.vstack([self.vertices.min(axis=0), self.vertices.max(axis=0)])

    @property
    def nbytes(self) -> int:
        return self.vertices.nbytes + sum(a.nbytes for a in self.attributes.values())

    # ---------------------------------------------------------- factory
    @classmethod
    def from_pathlines(cls, pathlines: Iterable) -> "PolylineSet":
        """Build from Pathline objects, carrying time and speed."""
        verts, times, speeds, offsets = [], [], [], [0]
        for path in pathlines:
            pts = np.asarray(path.points)
            verts.append(pts)
            times.append(np.asarray(path.times))
            if len(pts) >= 2:
                seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
                dt = np.diff(np.asarray(path.times))
                v = np.divide(seg, dt, out=np.zeros_like(seg), where=dt > 0)
                speeds.append(np.concatenate([[v[0]], v]))
            else:
                speeds.append(np.zeros(len(pts)))
            offsets.append(offsets[-1] + len(pts))
        if not verts:
            return cls()
        return cls(
            np.concatenate(verts),
            offsets,
            {"time": np.concatenate(times), "speed": np.concatenate(speeds)},
        )

    @staticmethod
    def merge(sets: Iterable["PolylineSet"]) -> "PolylineSet":
        sets = [s for s in sets if s is not None and not s.is_empty()]
        if not sets:
            return PolylineSet()
        vertices = np.concatenate([s.vertices for s in sets])
        offsets = [0]
        for s in sets:
            base = offsets[-1]
            offsets.extend(base + o for o in s.offsets[1:])
        names = set(sets[0].attributes)
        for s in sets[1:]:
            names &= set(s.attributes)
        attrs = {n: np.concatenate([s.attributes[n] for s in sets]) for n in names}
        return PolylineSet(vertices, offsets, attrs)

    def __repr__(self) -> str:
        return f"PolylineSet(n_lines={self.n_lines}, n_vertices={self.n_vertices})"
