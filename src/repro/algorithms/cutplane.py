"""Cut-plane extraction.

Cut planes are the paper's other canonical example of a method whose
"parts generated during this process could be visualized directly"
(§5.1).  A plane cut is exactly the isosurface of the signed-distance
field ``d(x) = n·x - c`` sampled at the grid points, so the tetrahedral
isosurface machinery is reused wholesale — including streaming.
"""

from __future__ import annotations

import numpy as np

from ..grids.block import StructuredBlock
from ..grids.multiblock import MultiBlockDataset
from ..viz.mesh import TriangleMesh
from .isosurface import extract_block_isosurface

__all__ = ["plane_distance_field", "extract_block_cutplane", "extract_cutplane"]

_FIELD = "_plane_distance"


def plane_distance_field(
    block: StructuredBlock, normal: np.ndarray, offset: float
) -> np.ndarray:
    """Signed distance of every grid point to the plane ``n·x = c``."""
    n = np.asarray(normal, dtype=np.float64)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("plane normal must be non-zero")
    n = n / norm
    return np.einsum("...c,c->...", block.coords, n) - float(offset) / norm


def _prepared(block: StructuredBlock, normal, offset) -> StructuredBlock:
    work = StructuredBlock(
        block.coords,
        dict(block.fields),
        block_id=block.block_id,
        time_index=block.time_index,
    )
    work.set_field(_FIELD, plane_distance_field(block, normal, offset))
    return work


def extract_block_cutplane(
    block: StructuredBlock,
    normal: np.ndarray,
    offset: float = 0.0,
    attributes: list[str] | None = None,
) -> TriangleMesh:
    """Cut one block with the plane ``normal · x = offset``.

    ``attributes`` lists scalar fields to interpolate onto the cut (the
    usual coloring use case).
    """
    work = _prepared(block, normal, offset)
    return extract_block_isosurface(work, _FIELD, 0.0, attributes=attributes)


def extract_cutplane(
    dataset: MultiBlockDataset,
    normal: np.ndarray,
    offset: float = 0.0,
    attributes: list[str] | None = None,
) -> TriangleMesh:
    """Cut a whole multi-block time level."""
    return TriangleMesh.merge(
        extract_block_cutplane(b, normal, offset, attributes) for b in dataset
    )
