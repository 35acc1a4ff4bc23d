"""Multi-resolution representations for progressive computation.

Progressive streaming (paper §5.3) extracts a coarse approximation from
the lowest-resolution level first, then refines.  The hierarchy here is
a subsampling pyramid: level ``l`` keeps every ``2^l``-th lattice point
(always including the last one, so the block's physical extent is
preserved at every level).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .block import StructuredBlock
from .summary import box_field_minmax, cell_field_minmax

__all__ = [
    "coarsen_block",
    "pyramid_level_shapes",
    "modeled_pyramid_nbytes",
    "MultiResPyramid",
]


def _stride_indices(n: int, stride: int) -> np.ndarray:
    """Every ``stride``-th index in ``range(n)``, always including ``n-1``."""
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return np.asarray(idx)


def coarsen_block(block: StructuredBlock, stride: int = 2) -> StructuredBlock:
    """Subsample a block's lattice by ``stride`` along every axis."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    ni, nj, nk = block.shape
    ii = _stride_indices(ni, stride)
    jj = _stride_indices(nj, stride)
    kk = _stride_indices(nk, stride)
    coords = block.coords[np.ix_(ii, jj, kk)]
    fields = {name: data[np.ix_(ii, jj, kk)] for name, data in block.fields.items()}
    return StructuredBlock(
        coords, fields, block_id=block.block_id, time_index=block.time_index
    )


def pyramid_level_shapes(
    shape: tuple[int, int, int], min_dim: int = 3, max_levels: int = 8
) -> list[tuple[int, int, int]]:
    """Level shapes (coarsest first) a :class:`MultiResPyramid` would build.

    Pure shape arithmetic — ``len(_stride_indices(n, 2)) == n // 2 + 1``
    for ``n >= 2`` — so cost models can size pyramids from a
    :class:`~.block.BlockHandle` without loading data.
    """
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    shapes = [tuple(int(s) for s in shape)]
    while len(shapes) < max_levels:
        cur = shapes[-1]
        if min((s + 1) // 2 for s in cur) < min_dim:
            break
        nxt = tuple(n // 2 + 1 if n >= 2 else 1 for n in cur)
        if nxt == cur:
            break
        shapes.append(nxt)
    shapes.reverse()
    return shapes


def modeled_pyramid_nbytes(
    shape: tuple[int, int, int],
    min_dim: int = 3,
    max_levels: int = 8,
    bytes_per_point: float = 32.0,
) -> int:
    """Modeled size of the derived (coarse) pyramid levels.

    The finest level aliases the source block, which the DMS already
    caches under its block item, so only coarser levels count.
    """
    shapes = pyramid_level_shapes(shape, min_dim=min_dim, max_levels=max_levels)
    points = sum(ni * nj * nk for ni, nj, nk in shapes[:-1])
    return int(points * bytes_per_point)


class MultiResPyramid:
    """Subsampling pyramid over one block.

    ``levels[0]`` is the coarsest approximation, ``levels[-1]`` the
    original block — progressive algorithms walk the list front to back.
    """

    def __init__(self, block: StructuredBlock, min_dim: int = 3, max_levels: int = 8):
        if max_levels < 1:
            raise ValueError(f"max_levels must be >= 1, got {max_levels}")
        levels = [block]
        steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        current = block
        while len(levels) < max_levels:
            if min((s + 1) // 2 for s in current.shape) < min_dim:
                break
            fine_shape = current.shape
            current = coarsen_block(current, stride=2)
            if current.shape == levels[-1].shape:
                break
            steps.append(tuple(_stride_indices(n, 2) for n in fine_shape))
            levels.append(current)
        levels.reverse()
        self.levels: Sequence[StructuredBlock] = levels
        # _maps_to_finer[l]: per-axis lattice indices of level ``l``'s
        # points within level ``l + 1``'s lattice.
        self._maps_to_finer = list(reversed(steps))

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> StructuredBlock:
        return self.levels[-1]

    def cells_per_level(self) -> list[int]:
        return [lvl.n_cells for lvl in self.levels]

    def index_maps(self, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis lattice indices of ``level``'s points within level+1."""
        return self._maps_to_finer[level]

    def level_range(self, level: int, scalar: str) -> tuple[float, float]:
        """(min, max) of ``scalar`` over one level's lattice, memoised
        on that level's block."""
        block = self.levels[level]

        def scan() -> tuple[float, float]:
            f = block.field(scalar)
            if f.ndim != 3:
                raise ValueError(f"field {scalar!r} is not a scalar")
            return float(f.min()), float(f.max())

        return block.memo(("range", scalar), (scalar,), scan)

    def level_straddles(self, level: int, scalar: str, isovalue: float) -> bool:
        """Whether ``level`` can contribute any isosurface geometry."""
        lo, hi = self.level_range(level, scalar)
        return lo <= isovalue <= hi

    def active_cells(
        self,
        level: int,
        scalar: str,
        isovalue: float,
        out_stats: dict | None = None,
    ) -> np.ndarray:
        """Active flat cell indices at ``level``, culled coarse-to-fine.

        For ``level > 0`` the candidate set is restricted to cells whose
        ancestor box at level-1 straddles the isovalue: the box interval
        (:func:`~.summary.box_field_minmax` over this level's field)
        bounds every descendant corner value, so box straddle is
        necessary for cell straddle.  Survivors then pass the exact
        8-corner test, making the result identical — order included —
        to ``active_cell_indices`` on the same level, while the work
        scales with surface area instead of volume.

        ``out_stats`` (optional) receives ``{"candidates": n}`` — the
        number of cells that survived the coarse cull and had to be
        scanned exactly, which is what cost models should charge.
        """
        block = self.levels[level]
        if out_stats is not None:
            out_stats["candidates"] = block.n_cells
        if level == 0 or not self._maps_to_finer:
            mins, maxs = cell_field_minmax(block, scalar)
            mask = (mins <= isovalue) & (maxs >= isovalue)
            return np.nonzero(mask)[0]
        idx = self._maps_to_finer[level - 1]
        box_min, box_max = box_field_minmax(block.field(scalar), idx)
        coarse_mask = (box_min <= isovalue) & (box_max >= isovalue)
        if not coarse_mask.any():
            if out_stats is not None:
                out_stats["candidates"] = 0
            return np.empty(0, dtype=np.int64)
        ancestors = tuple(
            np.searchsorted(axis_idx, np.arange(n_cells), side="right") - 1
            for axis_idx, n_cells in zip(idx, block.cell_shape)
        )
        fine_mask = coarse_mask[np.ix_(*ancestors)]
        candidates = np.nonzero(fine_mask.reshape(-1))[0]
        if out_stats is not None:
            out_stats["candidates"] = len(candidates)
        if len(candidates) == 0:
            return candidates
        mins, maxs = cell_field_minmax(block, scalar, candidates)
        keep = (mins <= isovalue) & (maxs >= isovalue)
        return candidates[keep]
