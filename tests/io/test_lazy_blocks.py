"""Lazy <f4 blocks and zero-copy (de)serialization regression tests.

Pins the PR-5 satellite fixes: reads no longer eagerly upcast every
``<f4`` field to float64 (which doubled resident bytes), resident sizes
are reported truthfully, ``np.frombuffer`` views cannot scribble on
their backing buffers, and the buffer-based serializers round-trip
byte-identically with the stream ones without ``BytesIO`` copies.
"""

import io

import numpy as np
import pytest

from repro.grids.block import LazyStructuredBlock, StructuredBlock
from repro.io import (
    block_from_buffer,
    block_from_bytes,
    block_nbytes,
    block_to_bytes,
    read_block,
    write_block,
)
from repro.dms.source import StoreSource


def _block():
    n = 5
    axis = np.linspace(-1.0, 1.0, n)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    coords = np.stack([x, y, z], axis=-1)
    fields = {
        "pressure": np.sin(x * 3) * np.cos(y * 2) + z,
        "velocity": np.stack([y, -x, 0.2 * z], axis=-1),
    }
    return StructuredBlock(coords, fields, block_id=3, time_index=1)


# ------------------------------------------------------------ satellite 1
def test_eager_read_doubles_lazy_does_not():
    payload = block_to_bytes(_block())
    eager = block_from_bytes(payload)
    lazy = block_from_bytes(payload, lazy=True)
    # Eager: every <f4 field resides at float64 width.
    for name in eager.fields:
        assert eager.fields[name].dtype == np.float64
    assert eager.resident_nbytes == eager.nbytes
    # Lazy: fields resident at their on-disk <f4 width until touched.
    field_f4 = sum(r.nbytes for r in (lazy.fields.raw_view(n) for n in lazy.fields))
    assert lazy.resident_nbytes == lazy.coords.nbytes + field_f4
    assert lazy.resident_nbytes < eager.resident_nbytes
    # nbytes still reports the float64-equivalent size, unmaterialized.
    assert lazy.nbytes == eager.nbytes
    assert lazy.materialized_fields() == []


def test_materialization_is_per_field_cached_and_equal():
    payload = block_to_bytes(_block())
    eager = block_from_bytes(payload)
    lazy = block_from_bytes(payload, lazy=True)
    before = lazy.resident_nbytes
    p1 = lazy.fields["pressure"]
    assert lazy.materialized_fields() == ["pressure"]
    assert lazy.resident_nbytes > before
    assert p1 is lazy.fields["pressure"]  # cached, not re-upcast
    assert p1.dtype == np.float64
    # Same numerics as the eager path, to the byte.
    assert p1.tobytes() == eager.fields["pressure"].tobytes()
    assert (
        lazy.fields["velocity"].tobytes() == eager.fields["velocity"].tobytes()
    )


def test_frombuffer_views_are_read_only_and_copies_are_writable():
    payload = block_to_bytes(_block())
    lazy = block_from_bytes(payload, lazy=True)
    raw = lazy.fields.raw_view("pressure")
    assert not raw.flags.writeable
    assert not lazy.coords.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        raw[0, 0, 0] = 99.0
    # Materialized f4->f8 fields are fresh copies, frozen because the
    # block may serve later commands; a caller that writes copies first,
    # and that copy must not alias back into the shared payload bytes.
    mat = lazy.fields["pressure"]
    assert not mat.flags.writeable
    assert not np.shares_memory(mat, raw)
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0, 0] = 123.0
    mine = mat.copy()
    mine[0, 0, 0] = 123.0
    assert float(raw[0, 0, 0]) != 123.0
    assert float(lazy.fields["pressure"][0, 0, 0]) != 123.0
    # Eager reads stay fully writable (historical contract).
    eager = block_from_bytes(payload)
    eager.fields["pressure"][0, 0, 0] = 7.0
    eager.coords[0, 0, 0, 0] = 7.0


def test_dict_conversion_sees_lazy_fields():
    # dict(block.fields) is used by the cutplane resampler; a plain
    # dict-subclass would silently bypass lazy __getitem__.
    lazy = block_from_bytes(block_to_bytes(_block()), lazy=True)
    as_dict = dict(lazy.fields)
    assert sorted(as_dict) == ["pressure", "velocity"]
    assert all(np.asarray(v).dtype == np.float64 for v in as_dict.values())


def test_store_reads_report_true_resident_bytes(tmp_path):
    from repro.io import write_dataset
    from tests.conftest import cached_engine

    eng = cached_engine(4, 2)
    store = write_dataset(
        tmp_path / "ds",
        [eng.level(0)],
        modeled_shapes=list(eng.spec.modeled_shapes),
        times=eng.spec.times[:1],
    )
    for b in (0, 1):
        lazy = store.read_block(0, b, lazy=True)
        eager = store.read_block(0, b, lazy=False)
        assert isinstance(lazy, LazyStructuredBlock)
        assert eager.resident_nbytes == eager.nbytes
        assert lazy.resident_nbytes < eager.resident_nbytes


# ------------------------------------------------------------ satellite 2
def test_block_to_bytes_matches_stream_writer():
    block = _block()
    fh = io.BytesIO()
    write_block(fh, block)
    assert block_to_bytes(block) == fh.getvalue()
    assert block_nbytes(block) == len(fh.getvalue())


def test_block_from_buffer_round_trip_and_trailing_bytes():
    block = _block()
    payload = block_to_bytes(block)
    # Page-aligned buffers (shared memory) carry trailing garbage.
    padded = payload + b"\x00" * 97
    for buf in (payload, bytearray(payload), memoryview(padded)):
        out = block_from_buffer(buf, lazy=True)
        assert out.block_id == 3 and out.time_index == 1
        assert out.coords.tobytes() == np.asarray(block.coords).tobytes()
        expected = block.fields["pressure"].astype("<f4").astype(np.float64)
        assert out.fields["pressure"].tobytes() == expected.tobytes()


def test_lazy_views_alias_the_buffer_zero_copy():
    payload = bytearray(block_to_bytes(_block()))
    lazy = block_from_buffer(payload, lazy=True)
    raw = lazy.fields.raw_view("pressure")
    # The view aliases the payload buffer itself: zero-copy.
    assert np.shares_memory(raw, np.frombuffer(payload, dtype=np.uint8))


def test_stream_reader_lazy_mode_matches_buffer_path():
    block = _block()
    payload = block_to_bytes(block)
    from_stream = read_block(io.BytesIO(payload), lazy=True)
    from_buffer = block_from_buffer(payload, lazy=True)
    assert isinstance(from_stream, LazyStructuredBlock)
    for name in from_buffer.fields:
        assert (
            from_stream.fields[name].tobytes()
            == from_buffer.fields[name].tobytes()
        )


def test_store_source_get_bytes_is_parseable(tmp_path):
    from repro.dms.items import block_item
    from repro.io import write_dataset
    from tests.conftest import cached_engine

    eng = cached_engine(4, 2)
    store = write_dataset(
        tmp_path / "ds",
        [eng.level(0)],
        modeled_shapes=list(eng.spec.modeled_shapes),
        times=eng.spec.times[:1],
    )
    source = StoreSource(store)
    item = block_item(store.name, 0, 0)
    buf = source.get_bytes(item)
    via_bytes = block_from_buffer(buf, lazy=True)
    via_get = source.get(item)
    assert isinstance(via_get, LazyStructuredBlock)
    assert via_bytes.coords.tobytes() == via_get.coords.tobytes()
    for name in via_get.fields:
        assert via_bytes.fields[name].tobytes() == via_get.fields[name].tobytes()
