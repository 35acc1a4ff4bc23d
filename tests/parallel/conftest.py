"""Fixtures for the multicore-execution tests: one on-disk engine store."""

import shutil
from multiprocessing import shared_memory

import pytest

from repro.io import write_dataset
from repro.io.dataset_io import DERIVED_DIR
from tests.conftest import cached_engine


@pytest.fixture(scope="session")
def engine_store(tmp_path_factory):
    """The small engine dataset written once to disk for the whole run."""
    eng = cached_engine(4, 2)
    root = tmp_path_factory.mktemp("engine_store")
    return write_dataset(
        root,
        [eng.level(t) for t in range(2)],
        modeled_shapes=list(eng.spec.modeled_shapes),
        times=eng.spec.times[:2],
    )


@pytest.fixture(autouse=True)
def _engine_store_as_written(request):
    """Every test sees the engine store as written: fields an earlier
    test derived and persisted beside it are dropped first, so no test
    depends on which ran before it."""
    if "engine_store" in request.fixturenames:
        root = request.getfixturevalue("engine_store").root
        shutil.rmtree(root / DERIVED_DIR, ignore_errors=True)


def holds_shared_memory(store) -> bool:
    """Whether a block store, or any container it holds, keeps a
    shared-memory segment (it must keep none: its files are mapped)."""
    values = list(vars(store).values())
    for value in list(values):
        if isinstance(value, dict):
            values += value.values()
        elif isinstance(value, (list, tuple, set)):
            values += value
    return any(isinstance(v, shared_memory.SharedMemory) for v in values)
