"""Per-point kernels vs their scalar references (point location layer).

``_invert_one`` / ``CellLocator.locate_one`` / ``CellLocator.blend_one``
are the particle tracer's whole locate/interpolate path, and
``locate_many`` is a loop over ``locate_one``.  Each must agree with the
independent one-point oracle in :mod:`.scalar_locator`: cells exactly,
natural coordinates and values within rounding.  ``blend_one`` is also
pinned bit for bit to numpy's 8-term reductions, because every pathline
velocity sample goes through it and the golden fingerprints pin the
request stream those samples steer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grids import CellLocator, StructuredBlock
from repro.grids.topology import BlockTopology
from repro.synth import cartesian_lattice, warp_lattice

from ..algorithms.scalar_tracer import topology_candidates
from .scalar_locator import (
    ScalarCellLocator,
    invert_trilinear,
    trilinear_map,
)
from .test_interpolate import invert, unit_cell_corners, warped_block


def invert_rows(corners, pts):
    """``_invert_one`` row by row: ``(rst, converged)`` arrays."""
    out = [invert(c, p) for c, p in zip(corners, pts)]
    return np.array([rst for rst, _ in out]), np.array([ok for _, ok in out])


# ---------------------------------------------------------------- newton


def test_invert_many_matches_scalar_unit_cell():
    corners = unit_cell_corners()
    rng = np.random.default_rng(5)
    rst_true = rng.uniform(0.0, 1.0, size=(50, 3))
    pts = np.array([trilinear_map(corners, r) for r in rst_true])
    rst, ok = invert_rows(np.tile(corners, (50, 1, 1)), pts)
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
    rst, ok = invert_rows(corners, pts)
    assert ok.all()
    np.testing.assert_allclose(rst, rst_true, atol=1e-8)


def test_invert_many_flags_far_points_unconverged():
    corners = np.tile(unit_cell_corners(), (3, 1, 1))
    pts = np.array([[0.5, 0.5, 0.5], [50.0, 0.0, 0.0], [0.2, 0.8, 0.3]])
    rst, ok = invert_rows(corners, pts)
    assert ok[0] and ok[2]
    assert not ok[1]  # clamped Newton cannot reach a point 50 cells away


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
    pts = [(0.52, 0.51, 0.49), (0.12, 0.88, 0.52)]
    hints = [(2, 2, 2), (0, 0, 0)]
    hits = [locator.locate_one(*p, hint) for p, hint in zip(pts, hints)]
    # The hinted walk must not build the kd-tree when hints suffice.
    assert locator._tree is None
    for p, hint, hit in zip(pts, hints, hits):
        found = locator.locate(np.array(p), hint=hint)
        assert found is not None and hit is not None
        assert hit[:3] == tuple(found[0])


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
    vals = [
        CellLocator.blend_one(f, *cell, *row)
        for cell, row in zip(cells.tolist(), rst.tolist())
    ]
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
    for p in [(0.3, 0.7, 0.2), (0.9, 0.1, 0.6)]:
        i, j, k, r, s, t = locator.locate_one(*p)
        val = CellLocator.blend_one(v, i, j, k, r, s, t)
        assert len(val) == 3
        ref, _cell = locator.sample("velocity", np.array(p))
        np.testing.assert_allclose(val, ref, atol=1e-10)


# ----------------------------------------------- per-point vs the oracle


def random_block(rng):
    shape = tuple(int(v) for v in rng.integers(3, 7, size=3))
    lattice = cartesian_lattice((0, 0, 0), (1, 1, 1), shape)
    block = StructuredBlock(warp_lattice(lattice, float(rng.uniform(0.0, 0.08))))
    block.set_field("s", rng.normal(size=shape))
    block.set_field("velocity", rng.normal(size=shape + (3,)))
    return block


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
def test_locate_one_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    block = random_block(rng)
    n = 24
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
    locator = ScalarCellLocator(block)
    for p in pts:
        hint = random_hint(rng, cell_shape)
        hit = locator.locate_one(*p.tolist(), hint)
        found = locator.locate(p, hint=hint)
        if found is None:
            assert hit is None
            continue
        assert hit is not None and hit[:3] == tuple(found[0])
        np.testing.assert_allclose(hit[3:], found[1], atol=1e-9)


def numpy_blend(data, i, j, k, r, s, t):
    """``blend_one`` as numpy reductions: pairwise over the 8 corners of
    a scalar field, sequential per component of a vector field."""
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    smtm, stm, smt, st_ = sm * tm, s * tm, sm * t, s * t
    w = np.array([
        rm * smtm, r * smtm, r * stm, rm * stm,
        rm * smt, r * smt, r * st_, rm * st_,
    ])
    corners = np.array([
        data[i, j, k], data[i + 1, j, k], data[i + 1, j + 1, k],
        data[i, j + 1, k], data[i, j, k + 1], data[i + 1, j, k + 1],
        data[i + 1, j + 1, k + 1], data[i, j + 1, k + 1],
    ])
    return (w.reshape((8,) + (1,) * (corners.ndim - 1)) * corners).sum(axis=0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_blend_one_matches_oracle_and_numpy_bits(seed):
    rng = np.random.default_rng(seed)
    block = random_block(rng)
    locator = ScalarCellLocator(block)
    cells = rng.integers(0, np.array(block.cell_shape), size=(8, 3)).tolist()
    rst = rng.uniform(-0.05, 1.05, size=(8, 3))
    for name in ("s", "velocity"):
        data = block.field(name)
        for cell, row in zip(cells, rst):
            one = CellLocator.blend_one(data, *cell, *row.tolist())
            np.testing.assert_allclose(
                one, locator.interpolate(name, tuple(cell), row), atol=1e-12
            )
            ref = numpy_blend(data, *cell, *row.tolist())
            assert np.array(one).tobytes() == ref.tobytes()


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
