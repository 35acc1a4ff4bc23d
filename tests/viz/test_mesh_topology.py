"""Welding / watertightness tests — a deep probe of the tet tables.

If the tetrahedral case table had a single wrong edge, extracted
surfaces of closed features would show boundary or non-manifold edges.
"""

import numpy as np
import pytest

from repro.algorithms import extract_block_isosurface, extract_isosurface
from repro.grids import MultiBlockDataset, StructuredBlock
from repro.synth import cartesian_lattice, warp_lattice
from repro.viz import TriangleMesh


def sphere_block(shape=(15, 15, 15), warped=False):
    coords = cartesian_lattice((-1, -1, -1), (1, 1, 1), shape)
    if warped:
        coords = warp_lattice(coords, amplitude=0.02)
    b = StructuredBlock(coords)
    b.set_field("r", np.linalg.norm(b.coords, axis=-1))
    return b


def test_indexed_welds_shared_vertices():
    mesh = extract_block_isosurface(sphere_block(), "r", 0.6)
    points, faces = mesh.indexed()
    assert len(points) < mesh.n_vertices  # adjacent triangles share cut points
    assert faces.shape == (mesh.n_triangles, 3)
    # Faces reference valid points and reproduce the soup's geometry.
    np.testing.assert_allclose(
        np.sort(points[faces].reshape(-1, 3), axis=0),
        np.sort(np.round(mesh.vertices, 9), axis=0),
        atol=1e-9,
    )


def test_empty_mesh_topology():
    m = TriangleMesh()
    points, faces = m.indexed()
    assert len(points) == 0 and len(faces) == 0
    assert m.edge_statistics()["edges"] == 0


def test_single_triangle_is_all_boundary():
    m = TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float))
    stats = m.edge_statistics()
    assert stats == {"edges": 3, "interior": 0, "boundary": 3, "nonmanifold": 0}


def test_sphere_isosurface_is_watertight():
    """The fully interior iso-sphere must be a closed 2-manifold."""
    mesh = extract_block_isosurface(sphere_block(), "r", 0.6)
    stats = mesh.edge_statistics()
    assert stats["nonmanifold"] == 0
    assert stats["boundary"] == 0
    assert stats["edges"] > 0


def test_sphere_isosurface_watertight_on_warped_grid():
    mesh = extract_block_isosurface(sphere_block(warped=True), "r", 0.6)
    stats = mesh.edge_statistics()
    assert stats["edges"] > 0 and stats["boundary"] == stats["nonmanifold"] == 0


def test_multiblock_sphere_is_watertight_after_merge():
    """Crack-freeness across block interfaces, verified topologically:
    the two half-spheres merge into a closed surface with no seam."""
    whole = sphere_block((15, 15, 15))
    left = StructuredBlock(whole.coords[:8], block_id=0)
    left.set_field("r", whole.field("r")[:8])
    right = StructuredBlock(whole.coords[7:], block_id=1)
    right.set_field("r", whole.field("r")[7:])
    merged = extract_isosurface(MultiBlockDataset([left, right]), "r", 0.6)
    stats = merged.edge_statistics()
    assert stats["edges"] > 0 and stats["boundary"] == stats["nonmanifold"] == 0
    # Each half alone has a boundary (the cut circle at the interface).
    half = extract_block_isosurface(left, "r", 0.6)
    assert half.edge_statistics()["boundary"] > 0


def test_surface_clipped_by_block_boundary_has_boundary_edges():
    mesh = extract_block_isosurface(sphere_block(), "r", 1.2)  # sphere > box
    stats = mesh.edge_statistics()
    assert stats["boundary"] > 0
    assert stats["nonmanifold"] == 0


def test_lambda2_tube_is_watertight():
    from repro.algorithms import extract_block_vortices

    coords = cartesian_lattice((-2, -2, -1), (2, 2, 1), (19, 19, 7))
    b = StructuredBlock(coords)
    x, y = b.coords[..., 0], b.coords[..., 1]
    rate = np.exp(-(x * x + y * y))
    b.set_field(
        "velocity", np.stack([-rate * y, rate * x, np.zeros_like(x)], axis=-1)
    )
    mesh = extract_block_vortices(b, threshold=-0.05)
    stats = mesh.edge_statistics()
    # The tube pierces the k faces: a boundary ring at each end, but no
    # non-manifold junctions anywhere.
    assert stats["nonmanifold"] == 0
    assert stats["interior"] > stats["boundary"]
