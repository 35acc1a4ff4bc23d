"""Curvilinear structured grid blocks.

The paper's datasets are *multi-block structured* CFD grids: each block
is a logically Cartesian ``(ni, nj, nk)`` lattice of points with
arbitrary physical coordinates (body-fitted, curvilinear).  Point-
centered fields (velocity, pressure, ...) live on the same lattice.

:class:`StructuredBlock` is the in-memory unit that all extraction
algorithms operate on; it is also the unit of I/O, caching and
prefetching in the DMS (the paper's "block").
"""

from __future__ import annotations

from collections.abc import Hashable, MutableMapping
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, TypeVar

import numpy as np

__all__ = ["StructuredBlock", "LazyStructuredBlock", "BlockHandle"]

_T = TypeVar("_T")


def _freeze(value: Any) -> None:
    """Make a memoised value's arrays read-only (tuples are walked)."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


class StructuredBlock:
    """One curvilinear structured block with point-centered fields.

    Parameters
    ----------
    coords:
        Physical point coordinates, shape ``(ni, nj, nk, 3)``, float.
    fields:
        Mapping from field name to an array of shape ``(ni, nj, nk)``
        (scalar) or ``(ni, nj, nk, 3)`` (vector).
    block_id:
        Index of the block within its dataset.
    time_index:
        Time level the block belongs to (``0`` for steady data).
    """

    def __init__(
        self,
        coords: np.ndarray,
        fields: Mapping[str, np.ndarray] | None = None,
        block_id: int = 0,
        time_index: int = 0,
    ):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 4 or coords.shape[-1] != 3:
            raise ValueError(
                f"coords must have shape (ni, nj, nk, 3), got {coords.shape}"
            )
        if min(coords.shape[:3]) < 2:
            raise ValueError(
                f"each block dimension needs >= 2 points, got {coords.shape[:3]}"
            )
        if not np.isfinite(coords).all():
            raise ValueError("coords contain non-finite values")
        self.coords = coords
        self.block_id = int(block_id)
        self.time_index = int(time_index)
        self.fields: dict[str, np.ndarray] = {}
        #: key -> (arrays read, value); see :meth:`memo`.
        self._memo: dict[Hashable, tuple[tuple[np.ndarray, ...], Any]] = {}
        for name, data in (fields or {}).items():
            self.set_field(name, data)

    # ------------------------------------------------------------- shape
    @property
    def shape(self) -> tuple[int, int, int]:
        """Point dimensions ``(ni, nj, nk)``."""
        return self.coords.shape[:3]

    @property
    def cell_shape(self) -> tuple[int, int, int]:
        ni, nj, nk = self.shape
        return (ni - 1, nj - 1, nk - 1)

    @property
    def n_points(self) -> int:
        ni, nj, nk = self.shape
        return ni * nj * nk

    @property
    def n_cells(self) -> int:
        ci, cj, ck = self.cell_shape
        return ci * cj * ck

    @property
    def nbytes(self) -> int:
        """Actual in-memory payload size of coordinates plus fields."""
        return self.coords.nbytes + sum(f.nbytes for f in self.fields.values())

    @property
    def resident_nbytes(self) -> int:
        """Bytes actually resident for this block right now.

        Equal to :attr:`nbytes` for an eager block; a
        :class:`LazyStructuredBlock` counts its raw (``<f4``) views at
        their true size and only charges float64 for fields that were
        materialized.
        """
        return self.nbytes

    # ------------------------------------------------------------ fields
    def set_field(self, name: str, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.shape[:3] != self.shape or data.ndim not in (3, 4):
            raise ValueError(
                f"field {name!r} shape {data.shape} incompatible with "
                f"block shape {self.shape}"
            )
        if data.ndim == 4 and data.shape[-1] != 3:
            raise ValueError(
                f"vector field {name!r} must have 3 components, got {data.shape}"
            )
        self.fields[name] = data

    def field(self, name: str) -> np.ndarray:
        try:
            return self.fields[name]
        except KeyError:
            raise KeyError(
                f"block {self.block_id} has no field {name!r}; "
                f"available: {sorted(self.fields)}"
            ) from None

    def has_field(self, name: str) -> bool:
        return name in self.fields

    def scalar_range(self, name: str) -> tuple[float, float]:
        data = self.field(name)
        if data.ndim != 3:
            raise ValueError(f"field {name!r} is not a scalar")
        return float(data.min()), float(data.max())

    # ------------------------------------------------------- derived data
    def memo(
        self, key: Hashable, reads: tuple[str, ...], build: Callable[[], _T]
    ) -> _T:
        """``build()``'s value for ``key``, computed once per input set.

        Data derived from this block's own arrays (λ2, per-cell scalar
        intervals, a BSP tree) is kept here for the block's lifetime, so
        a block the DMS keeps resident pays for it once.  An entry
        remembers the coordinate array and the ``reads`` field arrays it
        was built from, by identity, and is rebuilt once any of them is
        replaced (``set_field``, ``fields[name] = ...``,
        ``attach_raw_field``).  Writing into a field in place is not
        seen; memoised arrays are read-only.
        """
        inputs = (self.coords, *(self.field(name) for name in reads))
        entry = self._memo.get(key)
        if entry is not None and len(entry[0]) == len(inputs) and all(
            a is b for a, b in zip(entry[0], inputs)
        ):
            return entry[1]
        value = build()
        _freeze(value)
        self._memo[key] = (inputs, value)
        return value

    # ---------------------------------------------------------- geometry
    def bounds(self) -> np.ndarray:
        """Axis-aligned bounding box ``[[xmin,ymin,zmin],[xmax,ymax,zmax]]``."""
        pts = self.coords.reshape(-1, 3)
        return np.vstack([pts.min(axis=0), pts.max(axis=0)])

    def center(self) -> np.ndarray:
        b = self.bounds()
        return 0.5 * (b[0] + b[1])

    def cell_corner_points(self, i: int, j: int, k: int) -> np.ndarray:
        """The 8 corner points of cell ``(i, j, k)`` in VTK hexahedron order.

        Order: (i,j,k), (i+1,j,k), (i+1,j+1,k), (i,j+1,k), then the same
        four at ``k+1``.
        """
        c = self.coords
        return np.array(
            [
                c[i, j, k],
                c[i + 1, j, k],
                c[i + 1, j + 1, k],
                c[i, j + 1, k],
                c[i, j, k + 1],
                c[i + 1, j, k + 1],
                c[i + 1, j + 1, k + 1],
                c[i, j + 1, k + 1],
            ]
        )

    def cell_corner_values(self, name: str, i: int, j: int, k: int) -> np.ndarray:
        """Scalar field values at the 8 corners of cell ``(i, j, k)``."""
        f = self.field(name)
        return np.array(
            [
                f[i, j, k],
                f[i + 1, j, k],
                f[i + 1, j + 1, k],
                f[i, j + 1, k],
                f[i, j, k + 1],
                f[i + 1, j, k + 1],
                f[i + 1, j + 1, k + 1],
                f[i, j + 1, k + 1],
            ]
        )

    def iter_cells(self) -> Iterator[tuple[int, int, int]]:
        ci, cj, ck = self.cell_shape
        for i in range(ci):
            for j in range(cj):
                for k in range(ck):
                    yield (i, j, k)

    # -------------------------------------------------------------- misc
    def copy(self) -> "StructuredBlock":
        return StructuredBlock(
            self.coords.copy(),
            {n: f.copy() for n, f in self.fields.items()},
            block_id=self.block_id,
            time_index=self.time_index,
        )

    def __repr__(self) -> str:
        return (
            f"StructuredBlock(id={self.block_id}, t={self.time_index}, "
            f"shape={self.shape}, fields={sorted(self.fields)})"
        )


class _LazyFieldMap(MutableMapping):
    """Field mapping that upcasts raw ``<f4`` views on first access.

    Raw arrays stay exactly as parsed (typically read-only
    ``np.frombuffer`` views over an mmap or shared-memory buffer);
    ``map[name]`` materializes a float64 copy once and caches it.  A raw
    array that is already float64 (derived fields stored at full
    precision) is returned as-is — zero-copy, still read-only.  The
    upcast copy is read-only too: a block may outlive one command (the
    shared-memory store keeps it for its lifetime), so a caller that
    wants to write into a field copies it first.
    """

    __slots__ = ("_raw", "_materialized")

    def __init__(self, raw: Mapping[str, np.ndarray] | None = None):
        self._raw: dict[str, np.ndarray] = dict(raw or {})
        self._materialized: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._materialized[name]
        except KeyError:
            pass
        raw = self._raw[name]  # KeyError propagates: unknown field
        # float32 -> fresh float64 copy, frozen; float64 -> no copy.
        data = np.asarray(raw, dtype=np.float64)
        if data is not raw:
            data.flags.writeable = False
        self._materialized[name] = data
        return data

    def __setitem__(self, name: str, data: np.ndarray) -> None:
        self._materialized[name] = data

    def __delitem__(self, name: str) -> None:
        found = name in self._raw or name in self._materialized
        self._raw.pop(name, None)
        self._materialized.pop(name, None)
        if not found:
            raise KeyError(name)

    def __iter__(self) -> Iterator[str]:
        yield from self._raw
        for name in self._materialized:
            if name not in self._raw:
                yield name

    def __len__(self) -> int:
        extra = sum(1 for n in self._materialized if n not in self._raw)
        return len(self._raw) + extra

    def __contains__(self, name: object) -> bool:
        return name in self._raw or name in self._materialized

    def raw_view(self, name: str) -> np.ndarray | None:
        """The unmaterialized backing array, if the field has one."""
        return self._raw.get(name)

    @property
    def resident_nbytes(self) -> int:
        total = 0
        for name, raw in self._raw.items():
            mat = self._materialized.get(name)
            total += raw.nbytes if mat is None else mat.nbytes
        for name, mat in self._materialized.items():
            if name not in self._raw:
                total += mat.nbytes
        return total


class LazyStructuredBlock(StructuredBlock):
    """A block whose fields materialize to float64 only when touched.

    Built by the zero-copy deserialization paths
    (:func:`repro.io.format.block_from_buffer`, the mmap-backed
    :meth:`repro.io.DatasetStore.read_block` and shared-memory views):
    ``raw_fields`` are the on-disk ``<f4`` payloads as read-only views,
    upcast lazily per field, so resident bytes stay at the file's true
    size until an algorithm actually needs a field.  Coordinates are
    float64 on disk and stay zero-copy (read-only) views throughout.
    """

    def __init__(
        self,
        coords: np.ndarray,
        raw_fields: Mapping[str, np.ndarray] | None = None,
        block_id: int = 0,
        time_index: int = 0,
    ):
        super().__init__(coords, None, block_id=block_id, time_index=time_index)
        lazy = _LazyFieldMap()
        for name, raw in (raw_fields or {}).items():
            raw = np.asarray(raw)
            if raw.shape[:3] != self.shape or raw.ndim not in (3, 4):
                raise ValueError(
                    f"raw field {name!r} shape {raw.shape} incompatible with "
                    f"block shape {self.shape}"
                )
            lazy._raw[name] = raw
        self.fields = lazy

    @property
    def nbytes(self) -> int:
        # The float64-equivalent payload size (what an eager read would
        # hold), computed without materializing anything.
        total = self.coords.nbytes
        for name in self.fields:
            raw = self.fields.raw_view(name)
            arr = raw if raw is not None else self.fields[name]
            total += arr.size * np.dtype(np.float64).itemsize
        return total

    @property
    def resident_nbytes(self) -> int:
        return self.coords.nbytes + self.fields.resident_nbytes

    def attach_raw_field(self, name: str, raw: np.ndarray) -> None:
        """Attach a backing array as a lazy (unmaterialized) field.

        Used by the shared-memory store to graft derived fields (a
        precomputed λ2 scalar, say) onto a block without copying: the
        array stays a view over its segment and goes through the same
        on-access path as the on-disk fields.
        """
        raw = np.asarray(raw)
        if raw.shape[:3] != self.shape or raw.ndim not in (3, 4):
            raise ValueError(
                f"raw field {name!r} shape {raw.shape} incompatible with "
                f"block shape {self.shape}"
            )
        self.fields._raw[name] = raw
        self.fields._materialized.pop(name, None)

    def materialized_fields(self) -> list[str]:
        """Names of fields that have been upcast to float64 so far."""
        return sorted(self.fields._materialized)


@dataclass(frozen=True)
class BlockHandle:
    """Lightweight reference to a block without its payload.

    Datasets hand these out so that schedulers and the DMS can plan
    (sort blocks front-to-back, estimate load cost, distribute work)
    without touching the data.  ``modeled_shape`` is the full paper-scale
    resolution used by the simulated runtime's cost model; ``shape`` is
    the actual (laptop-scale) resolution of the arrays on disk.
    """

    dataset: str
    block_id: int
    time_index: int
    shape: tuple[int, int, int]
    modeled_shape: tuple[int, int, int]
    bounds_min: tuple[float, float, float]
    bounds_max: tuple[float, float, float]

    @property
    def n_points(self) -> int:
        ni, nj, nk = self.shape
        return ni * nj * nk

    @property
    def n_cells(self) -> int:
        ni, nj, nk = self.shape
        return (ni - 1) * (nj - 1) * (nk - 1)

    @property
    def modeled_points(self) -> int:
        ni, nj, nk = self.modeled_shape
        return ni * nj * nk

    @property
    def modeled_cells(self) -> int:
        ni, nj, nk = self.modeled_shape
        return (ni - 1) * (nj - 1) * (nk - 1)

    @property
    def scale_factor(self) -> float:
        """Modeled-to-actual cell ratio, used to scale compute costs."""
        return self.modeled_cells / max(self.n_cells, 1)

    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.bounds_min) + np.asarray(self.bounds_max))
