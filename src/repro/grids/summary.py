"""Dataset inspection summaries.

Quick structural and statistical overviews of multi-block datasets —
what an engineer prints before pointing extraction commands at new
data: block dimensions, cell counts and volumes, per-field ranges, and
interface conformity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .block import StructuredBlock
from .geometry import cell_volumes
from .multiblock import MultiBlockDataset
from .topology import find_matched_faces

__all__ = [
    "BlockSummary",
    "DatasetSummary",
    "box_field_minmax",
    "cell_field_minmax",
    "summarize_block",
    "summarize_dataset",
]

# Corner order matches the hex convention in :mod:`..algorithms.tet_tables`
# so min/max summaries and extraction agree cell by cell.
_CELL_CORNER_OFFSETS = (
    (0, 0, 0),
    (1, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (0, 1, 1),
)


def cell_field_minmax(
    block: StructuredBlock,
    scalar: str,
    cells: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell min/max of ``scalar`` over each cell's 8 corners.

    With ``cells=None`` both arrays cover every cell in flat (C) order
    and are memoised on the block (read-only, keyed by ``scalar``);
    otherwise only the given flat cell indices, in the given order.  A
    cell is *active* for an isovalue exactly when ``min <= iso <= max``,
    so these summaries reproduce ``active_cell_indices`` decisions.
    """
    f = block.field(scalar)
    if f.ndim != 3:
        raise ValueError(f"field {scalar!r} is not a scalar")
    if cells is None:
        return block.memo(("cell_minmax", scalar), (scalar,), lambda: _fold_minmax(f))
    ci, cj, ck = block.cell_shape
    flat = np.asarray(cells, dtype=np.int64)
    i, rem = np.divmod(flat, cj * ck)
    j, k = np.divmod(rem, ck)
    vals = np.stack(
        [f[i + di, j + dj, k + dk] for di, dj, dk in _CELL_CORNER_OFFSETS], axis=0
    )
    return vals.min(axis=0), vals.max(axis=0)


def _fold_minmax(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Separable: fold the two corners along each axis in turn.  The
    # same values as reducing an (8, ...) corner stack (min/max are
    # exact and np.minimum/np.maximum propagate NaN like the reductions
    # do) without materializing the stack.
    lo = hi = f
    for axis in range(3):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        lo = np.minimum(lo[head], lo[tail])
        hi = np.maximum(hi[head], hi[tail])
    return lo.reshape(-1), hi.reshape(-1)


def _box_reduce(arr: np.ndarray, idx: np.ndarray, axis: int, ufunc) -> np.ndarray:
    # ``reduceat`` segments stop one short of the next start; fold the
    # shared endpoint back in so box c covers fine points
    # ``idx[c] .. idx[c+1]`` inclusive.
    seg = ufunc.reduceat(arr, idx[:-1], axis=axis)
    return ufunc(seg, np.take(arr, idx[1:], axis=axis))


def box_field_minmax(
    field: np.ndarray, index_maps: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-box min/max of a fine point ``field`` over coarse-cell boxes.

    ``index_maps`` gives, per axis, the fine lattice indices retained by
    the coarse level (strictly increasing, first 0, last ``n-1``).  Box
    ``(a, b, c)`` spans fine points ``idx[a]..idx[a+1]`` along each axis,
    so its interval bounds every fine corner value inside — the
    conservative bound behind coarse-to-fine active-cell culling.
    """
    mins = np.asarray(field)
    maxs = mins
    for axis, idx in enumerate(index_maps):
        idx = np.asarray(idx, dtype=np.int64)
        if len(idx) < 2:
            raise ValueError("index map needs at least two entries per axis")
        mins = _box_reduce(mins, idx, axis, np.minimum)
        maxs = _box_reduce(maxs, idx, axis, np.maximum)
    return mins, maxs


@dataclass(frozen=True)
class BlockSummary:
    block_id: int
    shape: tuple[int, int, int]
    n_cells: int
    volume: float
    min_cell_volume: float
    max_cell_volume: float
    field_ranges: dict[str, tuple[float, float]]

    @property
    def aspect(self) -> float:
        """Largest / smallest cell volume: mesh grading indicator."""
        if self.min_cell_volume <= 0:
            return float("inf")
        return self.max_cell_volume / self.min_cell_volume


@dataclass(frozen=True)
class DatasetSummary:
    name: str
    n_blocks: int
    n_cells: int
    n_points: int
    bounds_min: tuple[float, float, float]
    bounds_max: tuple[float, float, float]
    total_volume: float
    field_ranges: dict[str, tuple[float, float]]
    matched_interfaces: int
    blocks: list[BlockSummary] = field(default_factory=list)

    def format(self, max_blocks: int = 8) -> str:
        lines = [
            f"dataset {self.name!r}: {self.n_blocks} blocks, "
            f"{self.n_cells} cells, {self.n_points} points",
            f"  bounds: {np.round(self.bounds_min, 3).tolist()} .. "
            f"{np.round(self.bounds_max, 3).tolist()}",
            f"  volume: {self.total_volume:.4g}; "
            f"conforming interfaces: {self.matched_interfaces}",
        ]
        for name, (lo, hi) in sorted(self.field_ranges.items()):
            lines.append(f"  field {name!r}: [{lo:.4g}, {hi:.4g}]")
        for b in self.blocks[:max_blocks]:
            lines.append(
                f"  block {b.block_id:3d}: shape {b.shape}, {b.n_cells} cells, "
                f"grading {b.aspect:.1f}x"
            )
        if len(self.blocks) > max_blocks:
            lines.append(f"  ... ({len(self.blocks) - max_blocks} more blocks)")
        return "\n".join(lines)


def summarize_block(block: StructuredBlock) -> BlockSummary:
    volumes = cell_volumes(block)
    ranges = {}
    for name, data in block.fields.items():
        if data.ndim == 3:
            ranges[name] = (float(data.min()), float(data.max()))
        else:
            mags = np.linalg.norm(data, axis=-1)
            ranges[f"|{name}|"] = (float(mags.min()), float(mags.max()))
    return BlockSummary(
        block_id=block.block_id,
        shape=block.shape,
        n_cells=block.n_cells,
        volume=float(volumes.sum()),
        min_cell_volume=float(volumes.min()),
        max_cell_volume=float(volumes.max()),
        field_ranges=ranges,
    )


def summarize_dataset(dataset: MultiBlockDataset) -> DatasetSummary:
    blocks = [summarize_block(b) for b in dataset]
    bounds = dataset.bounds()
    merged_ranges: dict[str, tuple[float, float]] = {}
    for summary in blocks:
        for name, (lo, hi) in summary.field_ranges.items():
            cur = merged_ranges.get(name)
            if cur is None:
                merged_ranges[name] = (lo, hi)
            else:
                merged_ranges[name] = (min(cur[0], lo), max(cur[1], hi))
    return DatasetSummary(
        name=dataset.name,
        n_blocks=len(dataset),
        n_cells=dataset.n_cells,
        n_points=dataset.n_points,
        bounds_min=tuple(bounds[0]),
        bounds_max=tuple(bounds[1]),
        total_volume=float(sum(b.volume for b in blocks)),
        field_ranges=merged_ranges,
        matched_interfaces=len(find_matched_faces(list(dataset))),
        blocks=blocks,
    )
