"""Case tables for isosurface triangulation via tetrahedral decomposition.

Each hexahedral cell is split into six tetrahedra around the main
diagonal (corner 0 → corner 6).  This split is *face-consistent*: the
diagonal chosen on every cell face matches the diagonal the neighboring
cell chooses on its shared face, so the extracted surface is crack-free
across cell boundaries without any table disambiguation (the classic
marching-cubes ambiguous cases cannot occur with tetrahedra).

The extraction kernel reads the 256-case hexahedron tables derived
from these tet tables at import time: one lookup per cell gives every
triangle its six tets emit (:data:`HEX_TRI_TABLE`), and
:data:`HEX_CUT_EDGES` / :data:`HEX_TRI_CORNERS` name each distinct cut
edge of a code once, so a cut point shared by several triangles of a
cell is interpolated once.

Corner numbering matches
:meth:`repro.grids.block.StructuredBlock.cell_corner_points` (VTK
hexahedron order).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HEX_TO_TETS",
    "TET_EDGES",
    "TET_TRI_TABLE",
    "TET_TRI_COUNT",
    "HEX_TRI_TABLE",
    "HEX_TRI_COUNT",
    "HEX_CUT_EDGES",
    "HEX_EDGE_COUNT",
    "HEX_TRI_CORNERS",
    "build_hex_tri_table",
    "build_hex_edge_tables",
]

#: Six tetrahedra around the 0-6 diagonal of the hexahedron.
HEX_TO_TETS = np.array(
    [
        [0, 1, 2, 6],
        [0, 2, 3, 6],
        [0, 3, 7, 6],
        [0, 7, 4, 6],
        [0, 4, 5, 6],
        [0, 5, 1, 6],
    ],
    dtype=np.int64,
)

#: The six edges of a tetrahedron as (vertex, vertex) pairs.
TET_EDGES = np.array(
    [
        [0, 1],  # edge 0
        [0, 2],  # edge 1
        [0, 3],  # edge 2
        [1, 2],  # edge 3
        [1, 3],  # edge 4
        [2, 3],  # edge 5
    ],
    dtype=np.int64,
)

# Case index: bit i set <=> tet vertex i is "inside" (value < isovalue).
# Each entry lists triangles as triples of cut-edge indices; -1 pads.
_RAW_TABLE: list[list[tuple[int, int, int]]] = [
    [],  # 0000: nothing inside
    [(0, 1, 2)],  # 0001: v0
    [(0, 4, 3)],  # 0010: v1
    [(1, 2, 4), (1, 4, 3)],  # 0011: v0 v1
    [(1, 3, 5)],  # 0100: v2
    [(0, 3, 5), (0, 5, 2)],  # 0101: v0 v2
    [(0, 4, 5), (0, 5, 1)],  # 0110: v1 v2
    [(2, 4, 5)],  # 0111: v0 v1 v2 (== not v3)
    [(2, 5, 4)],  # 1000: v3
    [(0, 1, 5), (0, 5, 4)],  # 1001: v0 v3
    [(0, 2, 5), (0, 5, 3)],  # 1010: v1 v3
    [(1, 5, 3)],  # 1011: (== not v2)
    [(1, 4, 2), (1, 3, 4)],  # 1100: v2 v3
    [(0, 3, 4)],  # 1101: (== not v1)
    [(0, 2, 1)],  # 1110: (== not v0)
    [],  # 1111: everything inside
]

#: Padded (16, 2, 3) table: up to two triangles of cut-edge indices.
TET_TRI_TABLE = np.full((16, 2, 3), -1, dtype=np.int64)
for case, tris in enumerate(_RAW_TABLE):
    for t, tri in enumerate(tris):
        TET_TRI_TABLE[case, t] = tri

#: Number of triangles per case.
TET_TRI_COUNT = np.array([len(t) for t in _RAW_TABLE], dtype=np.int64)


def build_hex_tri_table() -> tuple[np.ndarray, np.ndarray]:
    """Fold the six tet cases of every hexahedron code into one table.

    The code of a cell has bit ``c`` set when corner ``c`` is inside
    (value < isovalue).  Row ``h`` of the ``(256, 12, 3, 2)`` table lists
    the triangles the six tets of code ``h`` emit, in (tet, triangle)
    order, each as three cut edges given by their (corner, corner) hex
    endpoints in the tet table's orientation; the second array counts
    them.  Rows past the count are padding.
    """
    inside = (np.arange(256)[:, None] >> np.arange(8)) & 1
    tris = TET_TRI_TABLE[inside[:, HEX_TO_TETS] @ (1 << np.arange(4))]
    tris = tris.reshape(256, 12, 3)  # slot = 2 * tet + triangle
    unused = tris[..., 0] < 0
    slots = np.argsort(unused, axis=1, kind="stable")  # emitted first, in order
    tet_edges = 6 * (slots // 2)[..., None] + np.take_along_axis(
        tris, slots[..., None], axis=1
    )
    table = HEX_TO_TETS[:, TET_EDGES].reshape(36, 2)[tet_edges]
    return table.astype(np.intp), 12 - unused.sum(axis=1)


#: ``(256, 12, 3, 2)`` cut-edge corner pairs and ``(256,)`` triangle
#: counts per hexahedron code (see :func:`build_hex_tri_table`).
HEX_TRI_TABLE, HEX_TRI_COUNT = build_hex_tri_table()


def build_hex_edge_tables(
    tri_table: np.ndarray = HEX_TRI_TABLE, tri_count: np.ndarray = HEX_TRI_COUNT
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index every code's triangles through its distinct cut edges.

    Returns the ``(256, E, 2)`` cut edges of each code as (corner,
    corner) pairs in ascending ``8 * first + second`` order, their
    ``(256,)`` counts, and the ``(256, 12, 3)`` index of each triangle
    corner into its code's edge list, so that
    ``edges[h][corners[h, :count]]`` is ``tri_table[h, :count]``.
    An edge is keyed by its ordered pair; no code lists one unordered
    edge in both orientations (tets sharing an edge share it as
    ``(0, x)`` or ``(x, 6)``), so one point per key is exact.  Rows
    past a count are padding (index 0).
    """
    ids = 8 * tri_table[..., 0] + tri_table[..., 1]  # (256, 12, 3) in 0..63
    used = np.arange(12) < tri_count[:, None]
    present = np.zeros((256, 64), dtype=bool)
    codes = np.broadcast_to(np.arange(256)[:, None, None], ids.shape)
    present[codes[used], ids[used]] = True
    counts = present.sum(axis=1)
    edge_ids = np.argsort(~present, axis=1, kind="stable")[:, : counts.max()]
    edges = np.stack([edge_ids // 8, edge_ids % 8], axis=-1)
    rank = np.cumsum(present, axis=1) - 1
    corners = np.take_along_axis(rank, ids.reshape(256, -1), axis=1).reshape(ids.shape)
    corners[~used] = 0
    return edges.astype(np.intp), counts.astype(np.intp), corners.astype(np.intp)


#: ``(256, E, 2)`` distinct cut edges, ``(256,)`` their counts and
#: ``(256, 12, 3)`` triangle-corner indices into them per hexahedron
#: code (see :func:`build_hex_edge_tables`).
HEX_CUT_EDGES, HEX_EDGE_COUNT, HEX_TRI_CORNERS = build_hex_edge_tables()
