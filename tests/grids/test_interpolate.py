"""Unit and property tests for point location / trilinear interpolation.

Each query here runs the library's per-point kernels (``_invert_one``,
``CellLocator.locate_one``, ``CellLocator.blend_one``);
``test_batch_interpolate`` checks them against the independent oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grids import CellLocator, StructuredBlock
from repro.grids.interpolate import _invert_one
from repro.synth import cartesian_lattice, warp_lattice

rst_strategy = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
).map(np.array)


def unit_cell_corners():
    return np.array(
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
        dtype=float,
    )


def warped_block(shape=(5, 5, 5), amplitude=0.04):
    return StructuredBlock(
        warp_lattice(cartesian_lattice((0, 0, 0), (1, 1, 1), shape), amplitude)
    )


def weights(rst):
    """The trilinear weights ``blend_one`` applies at ``rst``: the blend
    of a 2x2x2 field whose component ``n`` is 1 at corner ``n``."""
    one_hot = np.zeros((2, 2, 2, 8))
    i, j, k = unit_cell_corners().astype(int).T
    one_hot[i, j, k, np.arange(8)] = 1.0
    return np.array(CellLocator.blend_one(one_hot, 0, 0, 0, *map(float, rst)))


def trilinear_map(corners, rst):
    return weights(rst) @ corners


def invert(corners, point):
    px, py, pz = map(float, point)
    tol2 = 1e-10 * 1e-10  # the residual tolerance locate_one passes
    r, s, t, ok = _invert_one(np.asarray(corners).tolist(), px, py, pz, tol2, 25)
    return np.array([r, s, t]), ok


def locate(loc, point, hint=None):
    """``locate_one`` as ``(cell, rst)`` or ``None``."""
    hit = loc.locate_one(*map(float, point), hint)
    if hit is None:
        return None
    return hit[:3], np.array(hit[3:])


def sample(loc, name, point):
    found = locate(loc, point)
    if found is None:
        return None
    cell, rst = found
    return np.array(loc.blend_one(loc.block.field(name), *cell, *rst.tolist())), cell


# ---------------------------------------------------------------- weights


def test_weights_sum_to_one_at_corners_and_center():
    w = weights(np.array([0.5, 0.5, 0.5]))
    assert w.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(w, 0.125)
    w0 = weights(np.array([0.0, 0.0, 0.0]))
    assert w0[0] == 1.0 and w0[1:].sum() == 0.0


@given(rst=rst_strategy)
def test_weights_partition_of_unity(rst):
    w = weights(rst)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w >= -1e-12)


@given(rst=rst_strategy)
def test_map_unit_cell_is_identity(rst):
    np.testing.assert_allclose(trilinear_map(unit_cell_corners(), rst), rst, atol=1e-12)


# ------------------------------------------------------------- inversion


@given(rst=rst_strategy)
@settings(max_examples=30)
def test_invert_trilinear_roundtrip_unit_cell(rst):
    corners = unit_cell_corners()
    point = trilinear_map(corners, rst)
    out, ok = invert(corners, point)
    assert ok
    np.testing.assert_allclose(out, rst, atol=1e-7)


def test_invert_trilinear_warped_cell_roundtrip():
    b = warped_block((3, 3, 3), amplitude=0.08)
    corners = b.cell_corner_points(1, 1, 1)
    for rst in [np.array([0.2, 0.7, 0.4]), np.array([0.9, 0.1, 0.5])]:
        point = trilinear_map(corners, rst)
        out, ok = invert(corners, point)
        assert ok
        np.testing.assert_allclose(out, rst, atol=1e-7)


# ---------------------------------------------------------------- locate


def test_locator_finds_cell_centers():
    b = warped_block((5, 5, 5))
    loc = CellLocator(b)
    from repro.grids import cell_centers

    centers = cell_centers(b)
    for cell in [(0, 0, 0), (2, 1, 3), (3, 3, 3)]:
        found = locate(loc, centers[cell])
        assert found is not None
        found_cell, rst = found
        assert found_cell == cell
        np.testing.assert_allclose(rst, 0.5, atol=0.2)


def test_locator_returns_none_outside():
    b = warped_block()
    loc = CellLocator(b)
    assert locate(loc, np.array([5.0, 5.0, 5.0])) is None
    assert locate(loc, np.array([-1.0, 0.5, 0.5])) is None


def test_locator_walk_from_hint():
    b = warped_block((6, 6, 6))
    loc = CellLocator(b)
    from repro.grids import cell_centers

    centers = cell_centers(b)
    target = centers[4, 4, 4]
    found = locate(loc, target, hint=(0, 0, 0))
    assert found is not None
    assert found[0] == (4, 4, 4)
    # Walking must not have built the kd-tree.
    assert loc._tree is None


def test_locator_hint_out_of_range_is_clamped():
    b = warped_block((4, 4, 4))
    loc = CellLocator(b)
    from repro.grids import cell_centers

    target = cell_centers(b)[0, 0, 0]
    found = locate(loc, target, hint=(99, -5, 2))
    assert found is not None
    assert found[0] == (0, 0, 0)


def test_interpolate_linear_field_is_exact():
    b = warped_block((5, 5, 5))
    x = b.coords
    b.set_field("s", 2.0 * x[..., 0] - x[..., 1] + 3.0 * x[..., 2])
    loc = CellLocator(b)
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(0.15, 0.85, size=3)
        found = locate(loc, p)
        assert found is not None
        cell, rst = found
        val = loc.blend_one(b.field("s"), *cell, *rst.tolist())
        expected = 2.0 * p[0] - p[1] + 3.0 * p[2]
        # Exact up to the trilinear representation of the warped geometry.
        assert val == pytest.approx(expected, abs=1e-6)


def test_interpolate_vector_field():
    b = warped_block((4, 4, 4))
    x = b.coords
    v = np.stack([x[..., 0], 2 * x[..., 1], -x[..., 2]], axis=-1)
    b.set_field("velocity", v)
    loc = CellLocator(b)
    p = np.array([0.5, 0.5, 0.5])
    result = sample(loc, "velocity", p)
    assert result is not None
    vel, cell = result
    np.testing.assert_allclose(vel, [0.5, 1.0, -0.5], atol=1e-6)


def test_sample_returns_none_outside():
    b = warped_block()
    b.set_field("s", np.zeros(b.shape))
    loc = CellLocator(b)
    assert sample(loc, "s", np.array([9.0, 9.0, 9.0])) is None


@given(
    px=st.floats(0.1, 0.9), py=st.floats(0.1, 0.9), pz=st.floats(0.1, 0.9)
)
@settings(max_examples=25, deadline=None)
def test_property_locate_then_map_recovers_point(px, py, pz):
    b = warped_block((5, 5, 5))
    loc = CellLocator(b)
    p = np.array([px, py, pz])
    found = locate(loc, p)
    assert found is not None
    cell, rst = found
    corners = b.cell_corner_points(*cell)
    np.testing.assert_allclose(trilinear_map(corners, rst), p, atol=1e-6)
