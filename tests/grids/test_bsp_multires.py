"""Tests for BSP trees and multi-resolution pyramids."""

import numpy as np
import pytest

from repro.grids import BSPTree, MultiResPyramid, StructuredBlock, coarsen_block
from repro.synth import cartesian_lattice, warp_lattice


def scalar_block(shape=(7, 7, 7), warped=True):
    coords = cartesian_lattice((0, 0, 0), (1, 1, 1), shape)
    if warped:
        coords = warp_lattice(coords, amplitude=0.02)
    b = StructuredBlock(coords)
    x = b.coords
    b.set_field("s", x[..., 0])  # s in [~0, ~1], planar isosurfaces
    return b


def test_bsp_leaves_partition_all_cells():
    b = scalar_block()
    tree = BSPTree(b, "s", leaf_size=8)
    seen = np.concatenate(
        list(tree.traverse_front_to_back(np.array([0.0, 0.0, 0.0])))
    )
    assert len(seen) == b.n_cells
    assert len(np.unique(seen)) == b.n_cells


def test_bsp_leaf_size_respected():
    b = scalar_block()
    tree = BSPTree(b, "s", leaf_size=4)
    for leaf in tree.traverse_front_to_back(np.zeros(3)):
        assert 1 <= len(leaf) <= 4


def test_bsp_rejects_bad_args():
    b = scalar_block()
    with pytest.raises(ValueError):
        BSPTree(b, "s", leaf_size=0)
    b.set_field("velocity", np.zeros(b.shape + (3,)))
    with pytest.raises(ValueError):
        BSPTree(b, "velocity")


def test_bsp_pruning_skips_empty_subtrees():
    b = scalar_block()
    tree = BSPTree(b, "s", leaf_size=8)
    all_cells = sum(
        len(leaf) for leaf in tree.traverse_front_to_back(np.zeros(3))
    )
    pruned = sum(
        len(leaf)
        for leaf in tree.traverse_front_to_back(np.zeros(3), isovalue=0.5)
    )
    assert 0 < pruned < all_cells
    # Pruned traversal must keep every cell whose interval contains 0.5.
    active = set(tree.active_cells(0.5).tolist())
    visited = set(
        np.concatenate(
            list(tree.traverse_front_to_back(np.zeros(3), isovalue=0.5))
        ).tolist()
    )
    assert active <= visited


def test_bsp_pruning_out_of_range_isovalue_yields_nothing():
    b = scalar_block()
    tree = BSPTree(b, "s")
    assert list(tree.traverse_front_to_back(np.zeros(3), isovalue=99.0)) == []
    assert len(tree.active_cells(99.0)) == 0


def test_bsp_front_to_back_is_view_dependent():
    b = scalar_block((9, 5, 5))
    tree = BSPTree(b, "s", leaf_size=8)
    from repro.grids import cell_centers

    centers = cell_centers(b).reshape(-1, 3)

    def mean_distance_rank(viewpoint):
        ranks = []
        for leaf in tree.traverse_front_to_back(viewpoint):
            d = np.linalg.norm(centers[leaf] - viewpoint, axis=1).mean()
            ranks.append(d)
        return ranks

    ranks = mean_distance_rank(np.array([-5.0, 0.5, 0.5]))
    # Leaves near the viewer come out before leaves far away: the first
    # leaf must be closer than the last by a clear margin.
    assert ranks[0] < ranks[-1]
    # Correlation between emission order and distance should be strong.
    order = np.arange(len(ranks))
    corr = np.corrcoef(order, ranks)[0, 1]
    assert corr > 0.5


def test_bsp_active_cells_match_bruteforce():
    b = scalar_block()
    tree = BSPTree(b, "s")
    iso = 0.43
    brute = []
    for flat, (i, j, k) in enumerate(b.iter_cells()):
        vals = b.cell_corner_values("s", i, j, k)
        if vals.min() <= iso <= vals.max():
            brute.append(flat)
    np.testing.assert_array_equal(np.sort(tree.active_cells(iso)), brute)


# ---------------------------------------------------------------- multires


def test_coarsen_preserves_extent():
    b = scalar_block((9, 9, 9), warped=False)
    c = coarsen_block(b, 2)
    assert c.shape == (5, 5, 5)
    np.testing.assert_allclose(c.bounds(), b.bounds())
    assert set(c.fields) == set(b.fields)


def test_coarsen_odd_dimension_keeps_last_point():
    b = scalar_block((6, 6, 6), warped=False)
    c = coarsen_block(b, 2)
    assert c.shape == (4, 4, 4)  # 0,2,4,5
    np.testing.assert_allclose(c.coords[-1, -1, -1], b.coords[-1, -1, -1])


def test_coarsen_stride_one_is_identity():
    b = scalar_block((5, 5, 5))
    c = coarsen_block(b, 1)
    np.testing.assert_array_equal(c.coords, b.coords)


def test_coarsen_rejects_bad_stride():
    with pytest.raises(ValueError):
        coarsen_block(scalar_block(), 0)


def test_pyramid_orders_coarsest_first():
    b = scalar_block((17, 17, 17), warped=False)
    pyr = MultiResPyramid(b)
    assert len(pyr) >= 3
    cells = pyr.cells_per_level()
    assert cells == sorted(cells)
    assert pyr.finest is b
    assert pyr.levels[0].n_cells < b.n_cells
    np.testing.assert_allclose(pyr.levels[0].bounds(), b.bounds())


def test_pyramid_on_tiny_block_is_single_level():
    b = scalar_block((3, 3, 3))
    pyr = MultiResPyramid(b, min_dim=3)
    assert len(pyr) >= 1
    assert pyr.finest is b


def test_pyramid_max_levels():
    b = scalar_block((17, 17, 17), warped=False)
    pyr = MultiResPyramid(b, max_levels=2)
    assert len(pyr) == 2
    with pytest.raises(ValueError):
        MultiResPyramid(b, max_levels=0)
