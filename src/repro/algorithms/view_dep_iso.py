"""View-dependent streamed isosurface extraction (the ViewerIso command).

"The algorithm proceeds as follows: In a first step, all blocks are
sorted in a front to back order with respect to the viewer's position.
[...] As soon as a block is in memory, the worker creates a binary
space-partitioning (BSP) tree of its domain and traverses it in a view
dependent fashion.  Thereby, a list of active cells [...] is generated.
[...] branches labeling empty regions are pruned during the traversal.
In a final step, the active cells are triangulated [...]  Whenever a
user-specified number of triangles is computed, these fragments of the
final isosurface are directly streamed to the visualization client."
(§6.3)

Unlike view-dependent culling schemes, "our approach computes not only
the visible parts but always a full isosurface representation" — the
view direction only controls *ordering*, because in a virtual
environment the user will examine the surface from other viewpoints.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..grids.block import StructuredBlock
from ..grids.bsp import BSPTree
from ..viz.mesh import TriangleMesh
from .isosurface import extract_block_isosurface

__all__ = ["iter_view_dependent_batches"]


def iter_view_dependent_batches(
    block: StructuredBlock,
    scalar: str,
    isovalue: float,
    viewpoint: np.ndarray,
    max_triangles: int = 2000,
    leaf_size: int = 64,
) -> Iterator[TriangleMesh]:
    """Streamed, view-ordered fragments of one block's isosurface.

    Builds the block's BSP tree *on line* (the paper deliberately does
    not precompute it, "in order to evaluate the 'true cost' of
    streaming"), traverses front-to-back with empty-region pruning, and
    emits a fragment whenever the accumulated triangle count reaches
    ``max_triangles``.  The simulated clock charges the build on every
    command; the tree itself is memoised on the block, keyed by
    ``(scalar, leaf_size)``, so a resident block builds it once.
    """
    if max_triangles < 1:
        raise ValueError(f"max_triangles must be >= 1, got {max_triangles}")
    tree = block.memo(
        ("bsp", scalar, leaf_size),
        (scalar,),
        lambda: BSPTree(block, scalar, leaf_size=leaf_size),
    )
    pending: list[TriangleMesh] = []
    pending_triangles = 0
    for leaf_cells in tree.traverse_front_to_back(viewpoint, isovalue=isovalue):
        mesh = extract_block_isosurface(
            block, scalar, isovalue, cell_indices=leaf_cells
        )
        if mesh.is_empty():
            continue
        pending.append(mesh)
        pending_triangles += mesh.n_triangles
        if pending_triangles >= max_triangles:
            yield TriangleMesh.merge(pending)
            pending = []
            pending_triangles = 0
    if pending:
        yield TriangleMesh.merge(pending)
