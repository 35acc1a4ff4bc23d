"""ShmBlockStore: shared segments, zero-copy views, manifests, cleanup."""

import os

import numpy as np
import pytest

from repro.algorithms.lambda2 import lambda2_field
from repro.dms.source import SyntheticSource
from repro.grids.block import LazyStructuredBlock
from repro.parallel import ShmBlockStore
from tests.conftest import cached_engine


def _segment_paths(store: ShmBlockStore) -> list[str]:
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    names = [shm.name for shm in store._all_segments()]
    return ["/dev/shm/" + name.lstrip("/") for name in names]


def test_from_store_blocks_match_disk(engine_store):
    with ShmBlockStore.from_store(engine_store) as shm:
        assert shm.n_blocks == engine_store.n_blocks
        assert shm.time_indices == [0, 1]
        for t in range(2):
            for b in range(engine_store.n_blocks):
                ours = shm.get_block(t, b)
                ref = engine_store.read_block(t, b, lazy=True)
                assert isinstance(ours, LazyStructuredBlock)
                assert ours.coords.tobytes() == ref.coords.tobytes()
                for name in ref.fields:
                    assert (
                        ours.fields[name].tobytes() == ref.fields[name].tobytes()
                    )


def test_views_are_read_only_and_zero_copy(engine_store):
    with ShmBlockStore.from_store(engine_store, time_indices=[0]) as shm:
        block = shm.get_block(0, 0)
        assert not block.coords.flags.writeable
        raw = block.fields.raw_view("pressure")
        assert raw is not None
        assert not raw.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            raw[0, 0, 0] = 1.0
        # Two reads view the same shared pages, not copies.
        again = shm.get_block(0, 0)
        assert np.shares_memory(
            raw, again.fields.raw_view("pressure")
        ) or raw.tobytes() == again.fields.raw_view("pressure").tobytes()


def test_from_source_synthetic_round_trips():
    eng = cached_engine(4, 2)
    with ShmBlockStore.from_source(SyntheticSource(eng), time_indices=[0]) as shm:
        block = shm.get_block(0, 0)
        ref = eng.build_block(0, 0)
        # Serialization canonicalizes fields to <f4 — compare at f4.
        for name in ref.fields:
            np.testing.assert_array_equal(
                np.asarray(block.fields[name], dtype=np.float32),
                np.asarray(ref.fields[name], dtype=np.float32),
            )
        np.testing.assert_array_equal(block.coords, ref.coords)


def test_manifest_attach_same_process(engine_store):
    with ShmBlockStore.from_store(engine_store, time_indices=[0]) as owner:
        manifest = owner.manifest()
        attached = ShmBlockStore.attach(manifest)
        try:
            a = attached.get_block(0, 1)
            b = owner.get_block(0, 1)
            assert a.coords.tobytes() == b.coords.tobytes()
            assert attached.handles(0)[1].block_id == 1
        finally:
            attached.close()
        # Attached stores never unlink someone else's segments.
        attached.unlink()
        assert owner.get_block(0, 1) is not None


def test_derived_fields_are_float64_and_shared(engine_store):
    with ShmBlockStore.from_store(engine_store, time_indices=[0]) as shm:
        block = shm.get_block(0, 0)
        lam = lambda2_field(block, "velocity")
        shm.add_derived_fields("lambda2", {(0, 0): lam})
        assert shm.derived_fields(0, 0) == ["lambda2"]
        enriched = shm.get_block(0, 0)
        raw = enriched.fields.raw_view("lambda2")
        assert raw.dtype == np.float64
        assert not raw.flags.writeable
        # Byte-identical to in-place computation: the reuse fast path in
        # the vortex command cannot change results.
        assert enriched.fields["lambda2"].tobytes() == lam.tobytes()
        [(name, _segment, layout)] = shm.manifest()["derived"]
        assert name == "lambda2" and (0, 0) in layout


def test_cleanup_retires_all_segments(engine_store):
    shm = ShmBlockStore.from_store(engine_store, time_indices=[0])
    shm.add_derived_fields("lambda2", {(0, 0): lambda2_field(shm.get_block(0, 0))})
    paths = _segment_paths(shm)
    assert paths and all(os.path.exists(p) for p in paths)
    shm.cleanup()
    assert not any(os.path.exists(p) for p in paths)
    # Idempotent.
    shm.cleanup()


def test_unknown_block_raises(engine_store):
    with ShmBlockStore.from_store(engine_store, time_indices=[0]) as shm:
        with pytest.raises(KeyError):
            shm.get_block(1, 0)
        with pytest.raises(KeyError):
            shm.add_derived_fields("lambda2", {(7, 0): np.zeros((2, 2, 2))})
