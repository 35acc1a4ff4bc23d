"""Isosurface extraction on curvilinear blocks.

"One of the most commonly used post-processing techniques is isosurface
extraction" (§6.3).  Cells whose corner-value interval encloses the
iso-value are *active*; active cells are triangulated at the
intersection points with the iso-value.

Triangulation decomposes each hexahedral cell into six tetrahedra
(:mod:`.tet_tables`), which is deterministic, ambiguity-free and
crack-free across cells.  The tets are never built: the 8-bit code of
which corners lie below the iso-value indexes 256-case tables derived
from the tet tables: the code's distinct (corner, corner) cut edges,
and each emitted triangle's three corners as indices into them.  The
kernel gathers only the two endpoints of each cut edge, straight from
the block's arrays, interpolates each cut edge of a cell once, and
builds the triangle soup with one ``take`` of those points (attributes
likewise).  A point shared by several of a cell's triangles costs one
interpolation, and the soup is bit-identical to interpolating every
triangle corner on its own: no code cuts an edge from both ends.
Everything is vectorized over cells: the per-cell Python loop the
paper's C++ could afford would dominate runtime here.
"""

from __future__ import annotations

import numpy as np

from ..grids.block import StructuredBlock
from ..grids.multiblock import MultiBlockDataset
from ..grids.summary import cell_field_minmax
from ..viz.mesh import TriangleMesh, nondegenerate
from .tet_tables import HEX_CUT_EDGES, HEX_EDGE_COUNT, HEX_TRI_CORNERS, HEX_TRI_COUNT

__all__ = [
    "active_cell_indices",
    "extract_block_isosurface",
    "extract_isosurface",
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


def active_cell_indices(
    block: StructuredBlock, scalar: str, isovalue: float
) -> np.ndarray:
    """Flat indices of cells whose corner interval encloses ``isovalue``."""
    lo, hi = cell_field_minmax(block, scalar)
    return np.nonzero((lo <= isovalue) & (hi >= isovalue))[0]


def extract_block_isosurface(
    block: StructuredBlock,
    scalar: str,
    isovalue: float,
    cell_indices: np.ndarray | None = None,
    attributes: list[str] | None = None,
) -> TriangleMesh:
    """Isosurface of one block (optionally restricted to given cells).

    ``attributes`` names extra point fields to interpolate onto the
    surface vertices (e.g. pressure for coloring).
    """
    if cell_indices is None:
        cell_indices = active_cell_indices(block, scalar, isovalue)
    cells = np.asarray(cell_indices, dtype=np.intp)
    if len(cells) == 0:
        return TriangleMesh()
    # Flat point index of each cell's corner 0, and of corners 0-7 from it.
    _, nj, nk = block.shape
    i, rem = np.divmod(cells, (nj - 1) * (nk - 1))
    j, k = np.divmod(rem, nk - 1)
    base = (i * nj + j) * nk + k
    steps = _CORNER_OFFSETS @ (nj * nk, nk, 1)
    values = block.field(scalar).reshape(-1)
    inside = values.take(base[:, None] + steps) < isovalue  # (n, 8)
    codes = np.packbits(inside, axis=1, bitorder="little")[:, 0].astype(np.intp)
    counts = HEX_TRI_COUNT[codes]
    if not counts.any():
        return TriangleMesh()
    # One row per distinct cut edge, in (cell, edge) order: each cut
    # point is interpolated once, however many triangles share it.  Its
    # edge-table row is its code's first row plus its rank in the cell.
    n_edges = HEX_EDGE_COUNT[codes]
    first = np.cumsum(n_edges) - n_edges  # each cell's first edge row
    width = HEX_CUT_EDGES.shape[1]
    table = np.repeat(width * codes - first, n_edges) + np.arange(first[-1] + n_edges[-1])
    pairs = HEX_CUT_EDGES.reshape(-1, 2).take(table, axis=0)
    ends = np.repeat(base, n_edges)[:, None] + steps.take(pairs)
    lo, hi = ends[:, 0], ends[:, 1]  # cut-edge endpoints

    a = values.take(lo)
    denom = values.take(hi) - a
    t = np.where(np.abs(denom) > 0, (isovalue - a) / np.where(denom == 0, 1, denom), 0.5)
    t = np.clip(t, 0.0, 1.0)
    points = block.coords.reshape(-1, 3)
    pa = points.take(lo, axis=0)
    # pa + t * (pb - pa), bit for bit, in the one (n_edges, 3) buffer.
    cut = points.take(hi, axis=0)
    cut -= pa
    cut *= t[:, None]
    cut += pa

    # One row per emitted triangle, in (cell, tet, triangle) order; its
    # table row is 12 * code + its slot within the cell, and its corners
    # index the cell's edge rows.
    start = np.cumsum(counts) - counts
    table = np.repeat(12 * codes - start, counts) + np.arange(start[-1] + counts[-1])
    corners = np.repeat(first, counts)[:, None] + HEX_TRI_CORNERS.reshape(-1, 3).take(
        table, axis=0
    )
    verts = cut.take(corners, axis=0)  # (m, 3, 3) soup

    keep = nondegenerate(verts)
    if keep.all():
        keep = slice(None)  # index by a view, not a copy
    out_attrs = {}
    for name in attributes or []:
        field = block.field(name).reshape(-1)
        fa = field.take(lo)
        out_attrs[name] = (fa + t * (field.take(hi) - fa)).take(corners[keep]).reshape(-1)
    return TriangleMesh(verts[keep].reshape(-1, 3), out_attrs)


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
