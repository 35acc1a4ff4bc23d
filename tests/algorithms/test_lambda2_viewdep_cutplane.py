"""Tests for λ2 vortex extraction, ViewerIso ordering and cut planes."""

import numpy as np
import pytest

from repro.algorithms import (
    extract_block_cutplane,
    extract_block_isosurface,
    extract_block_vortices,
    extract_cutplane,
    extract_vortices,
    iter_view_dependent_batches,
    iter_vortex_batches,
    lambda2_field,
    lambda2_points,
    plane_distance_field,
)
from repro.grids import StructuredBlock, velocity_gradient_tensor
from repro.synth import ABCFlowField, cartesian_lattice, build_engine


def rotation_block(shape=(13, 13, 13), omega=2.0):
    """Solid-body rotation about z: a textbook λ2 vortex core."""
    coords = cartesian_lattice((-1, -1, -1), (1, 1, 1), shape)
    b = StructuredBlock(coords)
    x, y = b.coords[..., 0], b.coords[..., 1]
    u = np.stack([-omega * y, omega * x, np.zeros_like(x)], axis=-1)
    b.set_field("velocity", u)
    return b


def shear_block(shape=(9, 9, 9)):
    """Pure shear: no vortex, λ2 >= 0 everywhere."""
    coords = cartesian_lattice((-1, -1, -1), (1, 1, 1), shape)
    b = StructuredBlock(coords)
    u = np.zeros(b.shape + (3,))
    u[..., 0] = 2.0 * b.coords[..., 1]
    b.set_field("velocity", u)
    return b


# ------------------------------------------------------------------ λ2


def test_lambda2_points_solid_body_rotation():
    """Analytic check: G = [[0,-w,0],[w,0,0],[0,0,0]] gives S=0,
    Q²=diag(-w²,-w²,0), eigenvalues (-w²,-w²,0) -> λ2 = -w²."""
    w = 2.0
    g = np.array([[0.0, -w, 0.0], [w, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert lambda2_points(g) == pytest.approx(-(w**2))


def test_lambda2_points_pure_shear_nonnegative():
    g = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # S and Q both nonzero; for pure shear λ2 = 0 analytically.
    assert lambda2_points(g) == pytest.approx(0.0, abs=1e-12)


def test_lambda2_field_rotation_is_negative_everywhere():
    b = rotation_block()
    lam = lambda2_field(b)
    assert lam.shape == b.shape
    np.testing.assert_allclose(lam, -4.0, atol=1e-6)


def test_lambda2_field_shear_has_no_vortex():
    lam = lambda2_field(shear_block())
    assert lam.min() >= -1e-10


def test_vortex_extraction_finds_core_boundary():
    """Gaussian (Lamb-Oseen-like) vortex: λ2 < 0 near the core only."""
    coords = cartesian_lattice((-2, -2, -1), (2, 2, 1), (25, 25, 7))
    b = StructuredBlock(coords)
    x, y = b.coords[..., 0], b.coords[..., 1]
    r2 = x * x + y * y
    u_theta_over_r = np.exp(-r2)  # angular rate falls off with radius
    u = np.stack(
        [-u_theta_over_r * y, u_theta_over_r * x, np.zeros_like(x)], axis=-1
    )
    b.set_field("velocity", u)
    mesh = extract_block_vortices(b, threshold=-0.05)
    assert mesh.n_triangles > 0
    # The boundary tube must wrap the z axis at a bounded radius.
    radii = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    assert radii.max() < 2.0
    assert radii.min() > 0.1


def test_vortex_extraction_shear_empty():
    mesh = extract_block_vortices(shear_block(), threshold=-0.05)
    assert mesh.is_empty()


def _abc_block():
    coords = cartesian_lattice((0, 0, 0), (2 * np.pi,) * 3, (13, 13, 13))
    return StructuredBlock(coords, {"velocity": ABCFlowField().velocity(coords, 0.0)})


def test_streamed_vortex_union_equals_batch():
    b = _abc_block()
    batch = extract_block_vortices(b.copy(), threshold=-0.2)
    frags = list(iter_vortex_batches(b, threshold=-0.2, batch_cells=100, slab_cells=2))
    assert len(frags) >= 2
    total_cells = sum(c for _m, c in frags)
    assert total_cells == b.n_cells
    streamed_area = sum(m.area() for m, _c in frags)
    assert streamed_area == pytest.approx(batch.area(), rel=1e-6)


@pytest.mark.parametrize("slab_cells", [1, 2, 4])
def test_streamed_slab_lambda2_is_bit_equal_to_the_full_field(slab_cells, monkeypatch):
    """Every slab ``iter_vortex_batches`` triangulates sees, on its
    cells' points, the bits of the full λ2 field, which are also the
    bits a slab with one ghost point layer computes on its own; so
    ``vortex-streamed`` and ``vortex-dataman`` threshold the same
    bits."""
    from repro.algorithms import lambda2 as module

    slabs = []

    def recording(block, scalar, isovalue, cell_indices=None, **kw):
        slabs.append((block.coords, block.field(scalar), np.asarray(cell_indices)))
        return extract_block_isosurface(block, scalar, isovalue, cell_indices, **kw)

    monkeypatch.setattr(module, "extract_block_isosurface", recording)
    blocks = [_abc_block()] + list(build_engine(base_resolution=10, n_timesteps=1).level(0))
    for block in blocks:
        full = lambda2_points(velocity_gradient_tensor(block))
        slabs.clear()
        list(iter_vortex_batches(block, batch_cells=1, slab_cells=slab_cells))
        ni, nj, nk = block.shape
        per_layer = (nj - 1) * (nk - 1)
        starts = range(0, ni - 1, slab_cells)
        assert len(slabs) == len(starts)
        for i0, (coords, lam, cells) in zip(starts, slabs):
            i1 = min(i0 + slab_cells, ni - 1)
            assert coords.tobytes() == block.coords.tobytes()
            assert np.array_equal(cells, np.arange(i0 * per_layer, i1 * per_layer))
            assert lam[i0 : i1 + 1].tobytes() == full[i0 : i1 + 1].tobytes()
            g0, g1 = max(i0 - 1, 0), min(i1 + 2, ni)
            ghost = StructuredBlock(
                block.coords[g0:g1], {"velocity": block.field("velocity")[g0:g1]}
            )
            ghost_lam = lambda2_points(velocity_gradient_tensor(ghost))
            assert ghost_lam[i0 - g0 : i1 - g0 + 1].tobytes() == full[i0 : i1 + 1].tobytes()


def test_streamed_vortex_validation():
    b = rotation_block((5, 5, 5))
    with pytest.raises(ValueError):
        list(iter_vortex_batches(b, batch_cells=0))


def test_extract_vortices_multiblock():
    engine = build_engine(base_resolution=5, n_timesteps=2)
    level = engine.level(0)
    mesh = extract_vortices(level, threshold=-0.5)
    assert mesh.n_triangles > 0  # swirl/tumble flow has vortical regions


# ------------------------------------------------------------ ViewerIso


def sphere_block(shape=(13, 13, 13)):
    b = StructuredBlock(cartesian_lattice((-1, -1, -1), (1, 1, 1), shape))
    b.set_field("r", np.linalg.norm(b.coords, axis=-1))
    return b


def test_view_dependent_batches_cover_full_surface():
    b = sphere_block((17, 17, 17))
    reference = extract_block_isosurface(b, "r", 0.6)
    frags = list(
        iter_view_dependent_batches(
            b, "r", 0.6, viewpoint=np.array([-5.0, 0, 0]), max_triangles=150
        )
    )
    assert len(frags) > 2
    # Full representation, not just visible parts (paper's point).
    assert sum(f.n_triangles for f in frags) == reference.n_triangles
    assert sum(f.area() for f in frags) == pytest.approx(reference.area(), rel=1e-9)


def test_view_dependent_first_fragment_is_near_viewer():
    b = sphere_block((17, 17, 17))
    vp = np.array([-5.0, 0.0, 0.0])
    frags = list(
        iter_view_dependent_batches(b, "r", 0.6, viewpoint=vp, max_triangles=100)
    )
    first_d = np.linalg.norm(frags[0].vertices - vp, axis=1).mean()
    last_d = np.linalg.norm(frags[-1].vertices - vp, axis=1).mean()
    assert first_d < last_d


def test_view_dependent_validation():
    b = sphere_block((5, 5, 5))
    with pytest.raises(ValueError):
        list(iter_view_dependent_batches(b, "r", 0.5, np.zeros(3), max_triangles=0))


# ------------------------------------------------------------- cutplane


def test_plane_distance_field_signs():
    b = sphere_block((5, 5, 5))
    d = plane_distance_field(b, np.array([1.0, 0, 0]), 0.0)
    assert d[0, 2, 2] < 0 < d[-1, 2, 2]


def test_plane_normal_validation():
    b = sphere_block((5, 5, 5))
    with pytest.raises(ValueError):
        plane_distance_field(b, np.zeros(3), 0.0)


def test_cutplane_area_of_box():
    """Cutting the [-1,1]^3 box at x=0 yields a 2x2 plane (area 4)."""
    b = sphere_block((15, 15, 15))
    mesh = extract_block_cutplane(b, np.array([1.0, 0, 0]), 0.0)
    assert mesh.area() == pytest.approx(4.0, rel=1e-6)
    np.testing.assert_allclose(mesh.vertices[:, 0], 0.0, atol=1e-9)


def test_cutplane_with_attribute():
    b = sphere_block((9, 9, 9))
    mesh = extract_block_cutplane(b, np.array([0, 0, 1.0]), 0.0, attributes=["r"])
    assert "r" in mesh.attributes
    expected = np.linalg.norm(mesh.vertices, axis=1)
    np.testing.assert_allclose(mesh.attributes["r"], expected, atol=0.05)


def test_cutplane_multiblock_and_streamed():
    engine = build_engine(base_resolution=4, n_timesteps=1)
    level = engine.level(0)
    mesh = extract_cutplane(level, np.array([0, 0, 1.0]), 1.0)
    assert mesh.n_triangles > 0
    # The streamed command sends one cut per block; together they are the cut.
    per_block = [extract_block_cutplane(b, np.array([0, 0, 1.0]), 1.0) for b in level]
    assert sum(m.n_triangles for m in per_block) == mesh.n_triangles


def test_cutplane_does_not_mutate_input():
    b = sphere_block((7, 7, 7))
    fields_before = set(b.fields)
    extract_block_cutplane(b, np.array([1.0, 0, 0]), 0.0)
    assert set(b.fields) == fields_before
