"""Tests for the binary block format and the dataset store."""

import io

import numpy as np
import pytest

from repro.grids import MultiBlockDataset, StructuredBlock, TimeSeries
from repro.io import (
    DatasetStore,
    FormatError,
    block_from_bytes,
    read_block,
    write_block,
    write_dataset,
)
from repro.synth import cartesian_lattice, warp_lattice


def sample_block(block_id=3, time_index=7, shape=(4, 5, 6)):
    coords = warp_lattice(
        cartesian_lattice((0, 0, 0), (1, 2, 3), shape), amplitude=0.02
    )
    b = StructuredBlock(coords, block_id=block_id, time_index=time_index)
    rng = np.random.default_rng(42)
    b.set_field("pressure", rng.normal(size=shape))
    b.set_field("velocity", rng.normal(size=shape + (3,)))
    return b


# ------------------------------------------------------------ format


def test_roundtrip_preserves_metadata_and_shapes():
    b = sample_block()
    fh = io.BytesIO()
    write_block(fh, b)
    out = block_from_bytes(fh.getvalue())
    assert out.block_id == 3
    assert out.time_index == 7
    assert out.shape == b.shape
    assert set(out.fields) == {"pressure", "velocity"}


def test_roundtrip_coords_exact_fields_float32():
    b = sample_block()
    fh = io.BytesIO()
    write_block(fh, b)
    out = block_from_bytes(fh.getvalue())
    np.testing.assert_array_equal(out.coords, b.coords)  # float64 exact
    np.testing.assert_allclose(out.field("pressure"), b.field("pressure"), atol=1e-6)
    np.testing.assert_allclose(out.field("velocity"), b.field("velocity"), atol=1e-6)


def test_bad_magic_rejected():
    fh = io.BytesIO()
    write_block(fh, sample_block())
    data = bytearray(fh.getvalue())
    data[:4] = b"XXXX"
    with pytest.raises(FormatError, match="magic"):
        block_from_bytes(bytes(data))


def test_truncated_file_rejected():
    fh = io.BytesIO()
    write_block(fh, sample_block())
    data = fh.getvalue()
    with pytest.raises(FormatError, match="truncated"):
        block_from_bytes(data[: len(data) // 2])


def test_bad_version_rejected():
    fh = io.BytesIO()
    write_block(fh, sample_block())
    data = bytearray(fh.getvalue())
    data[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(FormatError, match="version"):
        block_from_bytes(bytes(data))


def test_empty_stream_rejected():
    with pytest.raises(FormatError):
        read_block(io.BytesIO(b""))


def test_block_without_fields_roundtrips():
    b = StructuredBlock(cartesian_lattice((0, 0, 0), (1, 1, 1), (3, 3, 3)))
    fh = io.BytesIO()
    write_block(fh, b)
    out = block_from_bytes(fh.getvalue())
    assert out.fields == {}


# ------------------------------------------------------------- store


@pytest.fixture()
def store(tmp_path):
    levels = []
    for t in range(3):
        blocks = []
        for bid in range(2):
            b = sample_block(block_id=bid, time_index=t, shape=(3, 4, 5))
            blocks.append(b)
        levels.append(MultiBlockDataset(blocks, name="mini", time=0.5 * t))
    return write_dataset(
        tmp_path / "mini", levels, modeled_shapes=[(9, 9, 9), (7, 7, 7)]
    )


def test_store_metadata(store):
    assert store.name == "mini"
    assert store.n_timesteps == 3
    assert store.n_blocks == 2
    assert store.times == [0.0, 0.5, 1.0]


def test_store_reopen(store):
    reopened = DatasetStore(store.root)
    assert reopened.name == "mini"
    assert reopened.n_blocks == 2


def test_store_missing_meta(tmp_path):
    with pytest.raises(FileNotFoundError):
        DatasetStore(tmp_path / "nothing")


def test_store_read_block_roundtrip(store):
    b = store.read_block(1, 1)
    assert b.block_id == 1
    assert b.time_index == 1
    assert b.shape == (3, 4, 5)


def test_store_read_level(store):
    level = store.read_level(2)
    assert len(level) == 2
    assert level.time == pytest.approx(1.0)


def test_store_index_validation(store):
    with pytest.raises(IndexError):
        store.read_block(99, 0)
    with pytest.raises(IndexError):
        store.read_block(0, 99)


def test_store_handles_carry_modeled_shapes(store):
    handles = store.handles()
    assert handles[0].modeled_shape == (9, 9, 9)
    assert handles[1].modeled_shape == (7, 7, 7)
    assert handles[0].shape == (3, 4, 5)
    h2 = store.handles(time_index=2)
    assert h2[0].time_index == 2


def test_store_timeseries(store):
    ts = TimeSeries(store.times, store.read_level)
    assert len(ts) == 3
    level = ts.level(0)
    assert level.name == "mini"


def test_store_file_bytes_positive(store):
    n = store.block_path(0, 0).stat().st_size
    assert n > 3 * 4 * 5 * 3 * 8  # at least the coords payload


def test_write_dataset_rejects_inconsistent_levels(tmp_path):
    lvl_a = MultiBlockDataset([sample_block(0, 0, (3, 3, 3))])
    lvl_b = MultiBlockDataset(
        [sample_block(0, 1, (3, 3, 3)), sample_block(1, 1, (3, 3, 3))]
    )
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "bad", [lvl_a, lvl_b])


def test_write_dataset_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "empty", [])
