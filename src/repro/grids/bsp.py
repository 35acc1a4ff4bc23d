"""Binary space partitioning of a block's cells.

The paper's view-dependent isosurface command builds, per block, "a
binary space-partitioning (BSP) tree of its domain and traverses it in a
view dependent fashion", pruning "branches labeling empty regions"
(subtrees whose scalar interval excludes the iso-value).

The tree here splits the cell set at the median cell center along the
widest axis of the node's bounding box (an axis-aligned BSP, i.e. a
kd-tree over cells).  Every node carries the min/max of a chosen scalar
field over its cells, which enables the interval pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .block import StructuredBlock
from .geometry import cell_centers
from .summary import cell_field_minmax

__all__ = ["BSPNode", "BSPTree"]


@dataclass
class BSPNode:
    """One node; leaves own a slice of the tree's cell-index array."""

    lo: int
    hi: int
    bounds_min: np.ndarray
    bounds_max: np.ndarray
    scalar_min: float
    scalar_max: float
    axis: int = -1
    split: float = 0.0
    near: "BSPNode | None" = None
    far: "BSPNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.near is None

    @property
    def n_cells(self) -> int:
        return self.hi - self.lo


class BSPTree:
    """Cell-level BSP over one block, augmented with scalar intervals."""

    def __init__(self, block: StructuredBlock, scalar: str, leaf_size: int = 64):
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size
        # The shape, not the block: a tree memoised on its block must
        # not hold the block back.
        self.cell_shape = block.cell_shape
        self._cell_min, self._cell_max = cell_field_minmax(block, scalar)
        self._centers = cell_centers(block).reshape(-1, 3)
        self._order = np.arange(block.n_cells)
        self.root = self._build(0, block.n_cells)
        self._centers.flags.writeable = False
        self._order.flags.writeable = False

    # ------------------------------------------------------------- build
    def _build(self, lo: int, hi: int) -> BSPNode:
        idx = self._order[lo:hi]
        pts = self._centers[idx]
        bmin = pts.min(axis=0)
        bmax = pts.max(axis=0)
        node = BSPNode(
            lo=lo,
            hi=hi,
            bounds_min=bmin,
            bounds_max=bmax,
            scalar_min=float(self._cell_min[idx].min()),
            scalar_max=float(self._cell_max[idx].max()),
        )
        if hi - lo <= self.leaf_size:
            return node
        axis = int(np.argmax(bmax - bmin))
        if bmax[axis] - bmin[axis] <= 0.0:
            return node  # degenerate extent; stop splitting
        keys = self._centers[idx, axis]
        mid = (hi - lo) // 2
        part = np.argpartition(keys, mid)
        self._order[lo:hi] = idx[part]
        node.axis = axis
        node.split = float(self._centers[self._order[lo + mid], axis])
        node.near = self._build(lo, lo + mid)
        node.far = self._build(lo + mid, hi)
        return node

    # ---------------------------------------------------------- traversal
    def cell_indices(self, node: BSPNode) -> np.ndarray:
        """Flat cell indices owned by ``node`` (leaf slices of the order array)."""
        return self._order[node.lo : node.hi]

    def traverse_front_to_back(
        self, viewpoint: np.ndarray, isovalue: float | None = None
    ) -> Iterator[np.ndarray]:
        """Yield leaf cell-index arrays, nearest leaves first.

        With an ``isovalue``, subtrees whose scalar interval excludes it
        are pruned (the paper's empty-region pruning).
        """
        vp = np.asarray(viewpoint, dtype=np.float64)
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isovalue is not None and not (
                node.scalar_min <= isovalue <= node.scalar_max
            ):
                continue
            if node.is_leaf:
                yield self.cell_indices(node)
                continue
            # Children are [near, far] around the split plane; visit the
            # child on the viewer's side first (push it last).
            if vp[node.axis] <= node.split:
                stack.append(node.far)
                stack.append(node.near)
            else:
                stack.append(node.near)
                stack.append(node.far)

    def active_cells(self, isovalue: float) -> np.ndarray:
        """All flat cell indices whose interval encloses ``isovalue``."""
        mask = (self._cell_min <= isovalue) & (self._cell_max >= isovalue)
        return np.nonzero(mask)[0]
