"""Unit tests for the block sources: the synthetic generator and the
mapped block store."""

import pytest

from repro import ViracochaSession, build_engine
from repro.commands import DEMO_PARAMS
from repro.dms import SyntheticSource, block_item
from repro.dms.source import _indices
from repro.io import DatasetStore, write_dataset
from repro.parallel import ShmBlockStore
from repro.parallel import shm as shm_module
from repro.synth import BYTES_PER_POINT
from tests.conftest import cached_engine


@pytest.fixture(scope="module")
def engine():
    return build_engine(base_resolution=4, n_timesteps=3)


@pytest.fixture(scope="module")
def synthetic(engine):
    return SyntheticSource(engine)


def _export(engine, root) -> DatasetStore:
    n = engine.spec.n_timesteps
    return write_dataset(
        root,
        [engine.level(t) for t in range(n)],
        modeled_shapes=list(engine.spec.modeled_shapes),
        times=engine.spec.times[:n],
    )


@pytest.fixture(scope="module")
def mapped(engine, tmp_path_factory):
    root = tmp_path_factory.mktemp("src") / "d"
    with ShmBlockStore.from_store(_export(engine, root)) as store:
        yield store


def test_indices_require_block_params():
    from repro.dms import ItemName

    with pytest.raises(KeyError):
        _indices(ItemName("d", "other"))


@pytest.mark.parametrize("source_name", ["synthetic", "mapped"])
def test_source_interface(source_name, request, engine):
    source = request.getfixturevalue(source_name)
    assert source.name == "engine"
    assert source.n_timesteps == 3
    assert source.n_blocks == 23
    assert source.times == pytest.approx(engine.spec.times[:3])
    block = source.get(block_item("engine", 1, 2))
    assert block.block_id == 2
    assert block.time_index == 1
    handles = source.handles(2)
    assert handles[0].time_index == 2
    assert handles[0].modeled_shape == tuple(engine.spec.modeled_shapes[0])


def test_modeled_bytes_agree_between_adapters(synthetic, mapped):
    item = block_item("engine", 0, 5)
    assert synthetic.modeled_bytes(item) == mapped.modeled_bytes(item)
    ni, nj, nk = synthetic.dataset.spec.modeled_shapes[5]
    assert synthetic.modeled_bytes(item) == ni * nj * nk * BYTES_PER_POINT


def test_synthetic_source_block_content_matches_dataset(engine, synthetic):
    import numpy as np

    direct = engine.build_block(2, 7)
    via_source = synthetic.get(block_item("engine", 2, 7))
    np.testing.assert_array_equal(direct.coords, via_source.coords)
    np.testing.assert_array_equal(
        direct.field("velocity"), via_source.field("velocity")
    )


def test_a_session_over_the_mapped_store_parses_each_block_once(
    tmp_path, monkeypatch
):
    """The simulated cluster reads the store's one block object per key:
    three ``iso-simple`` runs (no DMS cache, every block loaded every
    run) over one 23-block level parse 23 blocks, not 69."""
    parses = []
    real = shm_module.block_from_buffer
    monkeypatch.setattr(
        shm_module, "block_from_buffer",
        lambda *a, **k: parses.append(1) or real(*a, **k),
    )
    with ShmBlockStore.from_store(_export(cached_engine(4, 2), tmp_path)) as store:
        session = ViracochaSession(store, n_workers=2)
        for _run in range(3):
            result = session.run("iso-simple", params=DEMO_PARAMS["iso-simple"])
            assert result.geometry.n_triangles > 0
        assert store.n_blocks == 23
    assert len(parses) == 23
