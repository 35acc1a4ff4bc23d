"""Isosurface extraction on curvilinear blocks.

"One of the most commonly used post-processing techniques is isosurface
extraction" (§6.3).  Cells whose corner-value interval encloses the
iso-value are *active*; active cells are triangulated at the
intersection points with the iso-value.

Triangulation decomposes each hexahedral cell into six tetrahedra
(:mod:`.tet_tables`), which is deterministic, ambiguity-free and
crack-free across cells.  Everything below is vectorized over cells:
the per-cell Python loop the paper's C++ could afford would dominate
runtime here (see the HPC guides' vectorization rule).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..grids.block import StructuredBlock
from ..grids.multiblock import MultiBlockDataset
from ..grids.summary import cell_field_minmax
from ..viz.mesh import TriangleMesh
from .tet_tables import HEX_TO_TETS, TET_EDGES, TET_TRI_TABLE

__all__ = [
    "gather_cell_corners",
    "active_cell_indices",
    "triangulate_cells",
    "extract_block_isosurface",
    "extract_isosurface",
    "iter_isosurface_batches",
]

_CORNER_OFFSETS = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [1, 1, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [1, 1, 1],
        [0, 1, 1],
    ],
    dtype=np.int64,
)


def _corner_point_indices(block: StructuredBlock, flat_cells: np.ndarray) -> tuple:
    """Point-lattice indices of the 8 corners of each cell, shape (n, 8)."""
    ci, cj, ck = block.cell_shape
    flat_cells = np.asarray(flat_cells, dtype=np.int64)
    i, rem = np.divmod(flat_cells, cj * ck)
    j, k = np.divmod(rem, ck)
    ii = i[:, None] + _CORNER_OFFSETS[None, :, 0]
    jj = j[:, None] + _CORNER_OFFSETS[None, :, 1]
    kk = k[:, None] + _CORNER_OFFSETS[None, :, 2]
    return ii, jj, kk


def gather_cell_corners(
    block: StructuredBlock, scalar: str, flat_cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Corner coordinates ``(n, 8, 3)`` and scalar values ``(n, 8)``."""
    ii, jj, kk = _corner_point_indices(block, flat_cells)
    coords = block.coords[ii, jj, kk]
    values = block.field(scalar)[ii, jj, kk]
    return coords, values


def active_cell_indices(
    block: StructuredBlock, scalar: str, isovalue: float
) -> np.ndarray:
    """Flat indices of cells whose corner interval encloses ``isovalue``."""
    lo, hi = cell_field_minmax(block, scalar)
    return np.nonzero((lo <= isovalue) & (hi >= isovalue))[0]


def triangulate_cells(
    coords: np.ndarray,
    values: np.ndarray,
    isovalue: float,
    attributes: dict[str, np.ndarray] | None = None,
) -> TriangleMesh:
    """Triangulate cells given corner coords ``(n,8,3)`` / values ``(n,8)``.

    ``attributes`` maps names to extra per-corner values ``(n, 8)`` to be
    interpolated onto the surface vertices (e.g. pressure for coloring).
    """
    n = len(coords)
    if n == 0:
        return TriangleMesh()
    # Expand hexahedra to tetrahedra: (n, 6, 4) -> (6n, 4).
    tet_vals = values[:, HEX_TO_TETS].reshape(-1, 4)
    tet_coords = coords[:, HEX_TO_TETS].reshape(-1, 4, 3)

    inside = tet_vals < isovalue
    cases = (
        inside[:, 0].astype(np.int64)
        | (inside[:, 1] << 1)
        | (inside[:, 2] << 2)
        | (inside[:, 3] << 3)
    )
    # Per tet, up to two triangles; (n_tets, 2, 3) of cut-edge ids.
    tris = TET_TRI_TABLE[cases]
    tet_idx, tri_idx = np.nonzero(tris[:, :, 0] >= 0)
    if len(tet_idx) == 0:
        return TriangleMesh()
    edge_ids = tris[tet_idx, tri_idx]  # (m, 3)

    # Interpolate the three cut points of every triangle at once.
    v0 = TET_EDGES[edge_ids, 0]  # (m, 3) tet-local vertex ids
    v1 = TET_EDGES[edge_ids, 1]
    rows = tet_idx[:, None]
    a = tet_vals[rows, v0]
    b = tet_vals[rows, v1]
    denom = b - a
    t = np.where(np.abs(denom) > 0, (isovalue - a) / np.where(denom == 0, 1, denom), 0.5)
    t = np.clip(t, 0.0, 1.0)
    pa = tet_coords[rows, v0]
    pb = tet_coords[rows, v1]
    verts = pa + t[..., None] * (pb - pa)  # (m, 3, 3)

    out_attrs = {}
    if attributes:
        for name, corner_vals in attributes.items():
            tv = corner_vals[:, HEX_TO_TETS].reshape(-1, 4)
            fa = tv[rows, v0]
            fb = tv[rows, v1]
            out_attrs[name] = (fa + t * (fb - fa)).reshape(-1)
    mesh = TriangleMesh(verts.reshape(-1, 3), out_attrs)
    return mesh.drop_degenerate()


def extract_block_isosurface(
    block: StructuredBlock,
    scalar: str,
    isovalue: float,
    cell_indices: np.ndarray | None = None,
    attributes: list[str] | None = None,
) -> TriangleMesh:
    """Isosurface of one block (optionally restricted to given cells)."""
    if cell_indices is None:
        cell_indices = active_cell_indices(block, scalar, isovalue)
    cell_indices = np.asarray(cell_indices, dtype=np.int64)
    if len(cell_indices) == 0:
        return TriangleMesh()
    coords, values = gather_cell_corners(block, scalar, cell_indices)
    attr_corners = {}
    for name in attributes or []:
        ii, jj, kk = _corner_point_indices(block, cell_indices)
        attr_corners[name] = block.field(name)[ii, jj, kk]
    return triangulate_cells(coords, values, isovalue, attr_corners or None)


def extract_isosurface(
    dataset: MultiBlockDataset,
    scalar: str,
    isovalue: float,
    attributes: list[str] | None = None,
) -> TriangleMesh:
    """Isosurface of a whole multi-block time level (batch, non-streamed)."""
    return TriangleMesh.merge(
        extract_block_isosurface(b, scalar, isovalue, attributes=attributes)
        for b in dataset
    )


def iter_isosurface_batches(
    block: StructuredBlock,
    scalar: str,
    isovalue: float,
    batch_cells: int = 512,
    cell_order: np.ndarray | None = None,
) -> Iterator[TriangleMesh]:
    """Yield isosurface fragments in batches of active cells.

    This is the unit of streaming: "Whenever a user-specified number of
    triangles is computed, these fragments of the final isosurface are
    directly streamed to the visualization client" (§6.3).  ``cell_order``
    can impose a view-dependent traversal (see
    :mod:`repro.algorithms.view_dep_iso`).
    """
    if batch_cells < 1:
        raise ValueError(f"batch_cells must be >= 1, got {batch_cells}")
    active = active_cell_indices(block, scalar, isovalue)
    if cell_order is not None and len(active) and len(np.ravel(cell_order)):
        # Stable reorder of the active cells by their rank in
        # ``cell_order`` (cells not listed go last, keeping their
        # relative order; a duplicated cell takes its last listed rank).
        order = np.asarray(cell_order, dtype=np.int64).ravel()
        sorter = np.argsort(order, kind="stable")
        ordered = order[sorter]
        right = np.searchsorted(ordered, active, side="right")
        rank = np.full(len(active), len(order), dtype=np.int64)
        hit = (right > 0) & (ordered[np.maximum(right - 1, 0)] == active)
        rank[hit] = sorter[right[hit] - 1]
        active = active[np.argsort(rank, kind="stable")]
    for start in range(0, len(active), batch_cells):
        chunk = active[start : start + batch_cells]
        mesh = extract_block_isosurface(block, scalar, isovalue, cell_indices=chunk)
        if not mesh.is_empty():
            yield mesh
