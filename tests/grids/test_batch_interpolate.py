"""Batch kernels vs their scalar references (point location layer).

``invert_trilinear_many`` / ``locate_many`` / ``interpolate_many`` feed
the batched particle tracer; each must agree with the independent
one-point oracle in :mod:`.scalar_locator`.  The per-point kernels
``CellLocator.locate_one`` / ``blend_one`` (which the tracer calls row
by row for block groups of at most ``_SMALL_BATCH`` rows) must be
bit-identical to the vectorised sweeps, because cell and step
decisions downstream feed the simulated request stream the golden
fingerprints pin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grids import (
    CellLocator,
    StructuredBlock,
    invert_trilinear_many,
    trilinear_weights_many,
)
from repro.grids.interpolate import _SMALL_BATCH
from repro.grids.topology import BlockTopology
from repro.synth import cartesian_lattice, warp_lattice

from ..algorithms.scalar_tracer import topology_candidates
from .scalar_locator import (
    ScalarCellLocator,
    invert_trilinear,
    trilinear_map,
    trilinear_weights,
)
from .test_interpolate import unit_cell_corners, warped_block


# ---------------------------------------------------------------- weights


def test_weights_many_matches_scalar():
    rng = np.random.default_rng(3)
    rst = rng.uniform(-0.5, 1.5, size=(40, 3))
    many = trilinear_weights_many(rst)
    assert many.shape == (40, 8)
    for i in range(len(rst)):
        np.testing.assert_allclose(many[i], trilinear_weights(rst[i]), atol=1e-14)


def test_weights_many_partition_of_unity():
    rng = np.random.default_rng(4)
    rst = rng.uniform(0.0, 1.0, size=(100, 3))
    np.testing.assert_allclose(
        trilinear_weights_many(rst).sum(axis=1), 1.0, atol=1e-12
    )


# ---------------------------------------------------------------- newton


def test_invert_many_matches_scalar_unit_cell():
    corners = unit_cell_corners()
    rng = np.random.default_rng(5)
    rst_true = rng.uniform(0.0, 1.0, size=(50, 3))
    pts = np.array([trilinear_map(corners, r) for r in rst_true])
    rst, ok = invert_trilinear_many(np.tile(corners, (50, 1, 1)), pts)
    assert ok.all()
    np.testing.assert_allclose(rst, rst_true, atol=1e-9)
    for i in range(50):
        rst_s, conv = invert_trilinear(corners, pts[i])
        assert conv
        np.testing.assert_allclose(rst[i], rst_s, atol=1e-9)


def test_invert_many_warped_cells_roundtrip():
    block = warped_block()
    locator = CellLocator(block)
    rng = np.random.default_rng(6)
    cells = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]
    corners = np.array([locator._cell_corners[c] for c in cells])
    rst_true = rng.uniform(0.05, 0.95, size=(len(cells), 3))
    pts = np.array(
        [trilinear_map(corners[n], rst_true[n]) for n in range(len(cells))]
    )
    rst, ok = invert_trilinear_many(corners, pts)
    assert ok.all()
    np.testing.assert_allclose(rst, rst_true, atol=1e-8)


def test_invert_many_flags_far_points_unconverged():
    corners = np.tile(unit_cell_corners(), (3, 1, 1))
    pts = np.array([[0.5, 0.5, 0.5], [50.0, 0.0, 0.0], [0.2, 0.8, 0.3]])
    rst, ok = invert_trilinear_many(corners, pts)
    assert ok[0] and ok[2]
    assert not ok[1]  # clamped Newton cannot reach a point 50 cells away


def test_invert_many_empty_input():
    rst, ok = invert_trilinear_many(
        np.empty((0, 8, 3)), np.empty((0, 3))
    )
    assert rst.shape == (0, 3)
    assert ok.shape == (0,)


# ---------------------------------------------------------------- locate


def test_locate_many_matches_scalar():
    block = warped_block(shape=(7, 7, 7))
    locator = ScalarCellLocator(block)
    rng = np.random.default_rng(8)
    inside = rng.uniform(0.05, 0.95, size=(30, 3))
    outside = rng.uniform(1.5, 3.0, size=(10, 3))
    pts = np.vstack([inside, outside])
    cells, rst = locator.locate_many(pts)
    for i, p in enumerate(pts):
        found = locator.locate(p)
        if found is None:
            assert cells[i][0] == -1
        else:
            cell, rst_s = found
            assert tuple(cells[i]) == tuple(cell)
            np.testing.assert_allclose(rst[i], rst_s, atol=1e-9)


def test_locate_many_with_hints_matches_and_walks():
    block = warped_block(shape=(7, 7, 7))
    locator = ScalarCellLocator(block)
    pts = np.array([[0.52, 0.51, 0.49], [0.12, 0.88, 0.52]])
    hints = np.array([[2, 2, 2], [0, 0, 0]], dtype=np.int64)
    cells, rst = locator.locate_many(pts, hints=hints)
    # The hinted walk must not build the kd-tree when hints suffice.
    assert locator._tree is None
    for i, p in enumerate(pts):
        found = locator.locate(p, hint=tuple(hints[i]))
        assert found is not None
        assert tuple(cells[i]) == tuple(found[0])


def test_locate_many_empty():
    block = warped_block()
    locator = CellLocator(block)
    cells, rst = locator.locate_many(np.empty((0, 3)))
    assert cells.shape == (0, 3)
    assert rst.shape == (0, 3)


# ----------------------------------------------------------- interpolate


def test_interpolate_many_linear_field_exact():
    grid = cartesian_lattice((0, 0, 0), (1, 1, 1), (6, 6, 6))
    block = StructuredBlock(grid)
    f = 2.0 * grid[..., 0] - 3.0 * grid[..., 1] + 0.5 * grid[..., 2] + 1.0
    block.set_field("f", f)
    locator = CellLocator(block)
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.05, 0.95, size=(25, 3))
    cells, rst = locator.locate_many(pts)
    assert (cells[:, 0] >= 0).all()
    vals = locator.interpolate_many("f", cells, rst)
    expected = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5 * pts[:, 2] + 1.0
    np.testing.assert_allclose(vals, expected, atol=1e-10)


def test_interpolate_many_vector_field_matches_scalar_sample():
    grid = cartesian_lattice((0, 0, 0), (1, 1, 1), (5, 5, 5))
    block = StructuredBlock(grid)
    v = np.stack(
        [grid[..., 0], 2.0 * grid[..., 1], -grid[..., 2]], axis=-1
    )
    block.set_field("velocity", v)
    locator = ScalarCellLocator(block)
    pts = np.array([[0.3, 0.7, 0.2], [0.9, 0.1, 0.6]])
    cells, rst = locator.locate_many(pts)
    vals = locator.interpolate_many("velocity", cells, rst)
    assert vals.shape == (2, 3)
    for i, p in enumerate(pts):
        ref, _cell = locator.sample("velocity", p)
        np.testing.assert_allclose(vals[i], ref, atol=1e-10)


# ------------------------------------------- small-batch bit identity
#
# Each case solves rows on the scalar path (a batch of n <= _SMALL_BATCH
# rows, or the per-point kernels locate_one / blend_one) and again in a
# batch padded past _SMALL_BATCH (vectorised sweep); every output row
# must match bit for bit.

_PAD = _SMALL_BATCH + 1
small_cases = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, _SMALL_BATCH)
)


def warped_cells(rng, m):
    """``m`` randomly scaled, shifted and distorted hexahedra."""
    scale = rng.uniform(0.2, 3.0, size=(m, 1, 3))
    shift = rng.uniform(-5.0, 5.0, size=(m, 1, 3))
    jitter = rng.normal(scale=0.12, size=(m, 8, 3))
    return (unit_cell_corners()[None] + jitter) * scale + shift


def random_block(rng):
    shape = tuple(int(v) for v in rng.integers(3, 7, size=3))
    lattice = cartesian_lattice((0, 0, 0), (1, 1, 1), shape)
    block = StructuredBlock(warp_lattice(lattice, float(rng.uniform(0.0, 0.08))))
    block.set_field("s", rng.normal(size=shape))
    block.set_field("velocity", rng.normal(size=shape + (3,)))
    return block


@given(**small_cases)
@settings(max_examples=60, deadline=None)
def test_invert_small_batch_bit_identical_to_sweep(seed, n):
    rng = np.random.default_rng(seed)
    corners = warped_cells(rng, n + _PAD)
    rst_true = rng.uniform(-0.4, 1.4, size=(n + _PAD, 3))
    pts = np.array([trilinear_map(c, r) for c, r in zip(corners, rst_true)])
    pts[::3] += rng.normal(scale=2.0, size=pts[::3].shape)  # some far misses
    rst_small, ok_small = invert_trilinear_many(corners[:n], pts[:n])
    rst_big, ok_big = invert_trilinear_many(corners, pts)
    assert np.array_equal(rst_small, rst_big[:n], equal_nan=True)
    assert np.array_equal(ok_small, ok_big[:n])


@given(**small_cases)
@settings(max_examples=40, deadline=None)
def test_interpolate_small_batch_bit_identical_to_sweep(seed, n):
    rng = np.random.default_rng(seed)
    block = random_block(rng)
    locator = CellLocator(block)
    cells = rng.integers(0, np.array(block.cell_shape), size=(n + _PAD, 3))
    rst = rng.uniform(-0.05, 1.05, size=(n + _PAD, 3))
    for name in ("s", "velocity"):
        small = locator.interpolate_many(name, cells[:n], rst[:n])
        big = locator.interpolate_many(name, cells, rst)
        assert small.shape == big[:n].shape
        assert np.array_equal(small, big[:n])


def random_hint(rng, cell_shape):
    """``None``, a cell of the block, or a cell clamped back into it."""
    kind = rng.integers(3)
    if kind == 0:
        return None
    if kind == 1:
        return tuple(int(v) for v in rng.integers(0, cell_shape))
    return tuple(int(v) for v in rng.integers(-4, cell_shape + 4))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_locate_small_batch_bit_identical_to_sweep(seed):
    rng = np.random.default_rng(seed)
    block = random_block(rng)
    n = _PAD + int(rng.integers(0, 8))
    pts = rng.uniform(-0.15, 1.15, size=(n, 3))
    # Grid nodes and edge midpoints lie in several cells at once, so the
    # cell found there depends on the walk path and the kd-tree ranks.
    nodes = block.coords.reshape(-1, 3)
    picks = rng.integers(0, len(nodes), size=n)
    on_node = rng.random(n) < 0.3
    pts[on_node] = nodes[picks[on_node]]
    on_edge = rng.random(n) < 0.15
    pts[on_edge] = 0.5 * (nodes[picks[on_edge]] + nodes[picks[on_edge] - 1])
    pts[rng.random(n) < 0.05] = np.nan
    cell_shape = np.array(block.cell_shape)
    hints = [random_hint(rng, cell_shape) for _ in range(n)]
    cells, rst = CellLocator(block).locate_many(pts, hints=hints)
    locator = CellLocator(block)
    for row, ((px, py, pz), hint) in enumerate(zip(pts.tolist(), hints)):
        hit = locator.locate_one(px, py, pz, hint)
        if hit is None:
            assert (cells[row] == -1).all()
            continue
        assert hit[:3] == tuple(cells[row].tolist())
        assert np.array(hit[3:]).tobytes() == rst[row].tobytes()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_blend_one_bit_identical_to_sweep_row(seed):
    rng = np.random.default_rng(seed)
    block = random_block(rng)
    locator = CellLocator(block)
    cells = rng.integers(0, np.array(block.cell_shape), size=(_PAD, 3))
    rst = rng.uniform(-0.05, 1.05, size=(_PAD, 3))
    for name in ("s", "velocity"):
        data = block.field(name)
        sweep = locator.interpolate_many(name, cells, rst)
        for row in range(_PAD):
            one = CellLocator.blend_one(data, *cells[row].tolist(), *rst[row].tolist())
            assert np.array(one).tobytes() == sweep[row].tobytes()


# ------------------------------------------------------------- topology


def test_candidates_many_matches_scalar():
    blocks = []
    for bid in range(4):
        coords = cartesian_lattice((bid, 0, 0), (bid + 1, 1, 1), (3, 3, 3))
        blocks.append(StructuredBlock(coords, block_id=bid))
    from repro.grids.multiblock import MultiBlockDataset

    topo = BlockTopology(MultiBlockDataset(blocks).handles())
    rng = np.random.default_rng(11)
    pts = np.vstack(
        [
            rng.uniform(-0.5, 4.5, size=(20, 1)),
            rng.uniform(-0.5, 1.5, size=(20, 1)),
            rng.uniform(-0.5, 1.5, size=(20, 1)),
        ]
    ).reshape(3, 20).T
    batch = topo.candidates_many(pts)
    for i, p in enumerate(pts):
        assert batch[i] == topology_candidates(topo, p)
