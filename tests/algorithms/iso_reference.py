"""Reference marching-tets kernel: the per-tet formulation, kept as an oracle.

This is the isosurface kernel as it stood before the hex-case table
(``gather_cell_corners`` + ``triangulate_cells``), verbatim except that
the degenerate-triangle filter is inlined (:func:`_drop_degenerate`, the
former ``TriangleMesh.areas``/``drop_degenerate`` bodies), so the oracle
shares no code with the kernel it checks.  It expands every cell into
six tetrahedra, gathers corner coordinates ``(n, 8, 3)`` and values
``(n, 8)``, and looks each tet up in the 16-case table.
``tests/algorithms/test_iso_kernel_equivalence.py`` holds
:func:`repro.algorithms.extract_block_isosurface` to byte-identical
vertices and attributes against it.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.isosurface import active_cell_indices
from repro.algorithms.tet_tables import HEX_TO_TETS, TET_EDGES, TET_TRI_TABLE
from repro.grids.block import StructuredBlock
from repro.viz.mesh import TriangleMesh

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


def _drop_degenerate(mesh: TriangleMesh, min_area: float = 1e-14) -> TriangleMesh:
    """Remove zero-area triangles (tet faces grazing the isovalue)."""
    t = mesh.triangles
    areas = 0.5 * np.linalg.norm(np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]), axis=1)
    keep = areas > min_area
    mask = np.repeat(keep, 3)
    return TriangleMesh(
        mesh.vertices[mask],
        {n: a[mask] for n, a in mesh.attributes.items()},
    )


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
    return _drop_degenerate(mesh)


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
