"""Tests for MultiBlockDataset, TimeSeries and BlockTopology."""

import numpy as np
import pytest

from repro.grids import BlockTopology, MultiBlockDataset, StructuredBlock, TimeSeries
from repro.synth import cartesian_lattice


def block_at(lo, hi, block_id, shape=(3, 3, 3), t=0):
    b = StructuredBlock(
        cartesian_lattice(lo, hi, shape), block_id=block_id, time_index=t
    )
    b.set_field("p", np.full(shape, float(block_id)))
    return b


def two_block_dataset():
    return MultiBlockDataset(
        [
            block_at((0, 0, 0), (1, 1, 1), 0),
            block_at((1, 0, 0), (2, 1, 1), 1),
        ],
        name="pair",
    )


def test_dataset_requires_blocks():
    with pytest.raises(ValueError):
        MultiBlockDataset([])


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        MultiBlockDataset(
            [block_at((0, 0, 0), (1, 1, 1), 0), block_at((1, 0, 0), (2, 1, 1), 0)]
        )


def test_dataset_lookup_and_iteration():
    ds = two_block_dataset()
    assert len(ds) == 2
    assert ds[1].block_id == 1
    assert [b.block_id for b in ds] == [0, 1]
    with pytest.raises(KeyError):
        ds[99]


def test_dataset_aggregates():
    ds = two_block_dataset()
    assert ds.n_cells == 16
    assert ds.n_points == 54
    bb = ds.bounds()
    np.testing.assert_allclose(bb[0], [0, 0, 0])
    np.testing.assert_allclose(bb[1], [2, 1, 1])
    assert ds.field_names() == ["p"]
    assert ds.scalar_range("p") == (0.0, 1.0)


def test_dataset_handles_carry_modeled_shapes():
    ds = two_block_dataset()
    handles = ds.handles(modeled_shapes=[(9, 9, 9), (5, 5, 5)])
    assert handles[0].modeled_shape == (9, 9, 9)
    assert handles[0].shape == (3, 3, 3)
    assert handles[1].scale_factor == pytest.approx(64 / 8)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries([], lambda i: None)
    with pytest.raises(ValueError):
        TimeSeries([0.0, 0.0], lambda i: None)


def test_timeseries_lazy_getter_and_cache():
    calls = []

    def getter(i):
        calls.append(i)
        return MultiBlockDataset([block_at((0, 0, 0), (1, 1, 1), 0, t=i)], time=i)

    ts = TimeSeries([0.0, 1.0, 2.0], getter)
    assert len(ts) == 3
    ts.level(1)
    ts.level(1)
    assert calls == [1]


def test_timeseries_level_out_of_range():
    ts = TimeSeries([0.0, 1.0], lambda i: None)
    with pytest.raises(IndexError):
        ts.level(2)
    with pytest.raises(IndexError):
        ts.level(-1)


# ---------------------------------------------------------------- topology


def grid_of_handles(n=3):
    """n x 1 x 1 row of adjacent unit blocks."""
    blocks = [
        block_at((i, 0, 0), (i + 1, 1, 1), i) for i in range(n)
    ]
    return MultiBlockDataset(blocks).handles()


def test_topology_candidates_contain_point():
    topo = BlockTopology(grid_of_handles(3))
    pts = np.array([[0.5, 0.5, 0.5], [2.5, 0.5, 0.5], [50.0, 0.5, 0.5]])
    assert topo.candidates_many(pts) == [[0], [2], []]


def test_topology_candidates_on_shared_face_sorted_by_center():
    topo = BlockTopology(grid_of_handles(3))
    (hits,) = topo.candidates_many(np.array([[1.0, 0.5, 0.5]]))
    assert set(hits) == {0, 1}
    (hits,) = topo.candidates_many(np.array([[0.9999999, 0.5, 0.5]]))
    assert hits == [0, 1]
    (hits,) = topo.candidates_many(np.array([[1.0000001, 0.5, 0.5]]))
    assert hits == [1, 0]


def test_topology_requires_handles():
    with pytest.raises(ValueError):
        BlockTopology([])
