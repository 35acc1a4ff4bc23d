"""Persisted λ2 is never stale, never wrong, never required.

The first vortex run on a store opened from disk derives λ2 once per
block and writes it under ``<root>/derived/``; every later open maps it
back.  Whatever happens to the dataset or to that directory in between
— rewritten in place, a block file replaced out of band, a truncated or
mis-shaped entry, a directory that cannot be written — the geometry
bytes must equal a fresh in-process compute that never saw the disk
copy of λ2.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.algorithms import lambda2 as lambda2_module
from repro.core.commands import ParamError
from repro.io import DatasetStore, write_dataset
from repro.io.dataset_io import DERIVED_DIR
from repro.io.format import write_block
from repro.parallel import ParallelExtractor
from tests.conftest import cached_engine

VORTEX = {"threshold": -1.0, "time_range": (0, 2)}


def _write(root, scale: float = 1.0) -> DatasetStore:
    eng = cached_engine(4, 2)
    levels = [eng.level(t) for t in range(2)]
    for level in levels:
        for block in level:
            velocity = block.field("velocity")
            block.set_field("velocity", velocity * scale)
            # A second vector field whose λ2 differs from velocity's.
            block.set_field("swirl", velocity[..., ::-1] * 3.0)
    return write_dataset(
        root, levels, modeled_shapes=list(eng.spec.modeled_shapes),
        times=eng.spec.times[:2],
    )


def _mesh_bytes(mesh) -> bytes:
    return mesh.vertices.tobytes() + mesh.triangles.tobytes()


def _fresh(root, params=VORTEX) -> bytes:
    """Serial, from the block files alone: the dataset's blocks and
    ``meta.json`` are copied to a directory of their own, so the run
    neither reads nor writes ``root/derived/``."""
    copy = root.parent / f"{root.name}-fresh"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns(DERIVED_DIR))
    try:
        with ParallelExtractor(DatasetStore(copy), workers=2,
                               executor="serial") as ext:
            assert ext.store.lacking("lambda2", [0, 1])  # nothing derived yet
            mesh = ext.run("vortex-dataman", params=params).result
    finally:
        shutil.rmtree(copy)
    assert mesh.n_triangles > 0
    return _mesh_bytes(mesh)


def _extract(root, executor: str = "serial", params=VORTEX) -> tuple[bytes, int]:
    """Bytes of one vortex run on a fresh open, and how many blocks it
    had to derive λ2 for (0: all came from disk)."""
    with ParallelExtractor(DatasetStore(root), workers=2, executor=executor) as ext:
        lacking = len(ext.store.lacking("lambda2", [0, 1]))
        mesh = ext.run("vortex-dataman", params=params).result
    return _mesh_bytes(mesh), lacking


def _index(root) -> dict:
    return json.loads((root / DERIVED_DIR / "lambda2.json").read_text())


def _data_file(root):
    return root / DERIVED_DIR / _index(root)["data"]


@pytest.fixture
def root(tmp_path):
    _write(tmp_path)
    return tmp_path


@pytest.fixture
def n_keys():
    return 2 * len(cached_engine(4, 2).level(0))


# ----------------------------------------------------------- the happy path
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_second_open_reads_the_persisted_field(root, n_keys, executor):
    expected = _fresh(root)
    assert not (root / DERIVED_DIR).exists()
    assert _extract(root, executor) == (expected, n_keys)
    assert len(_index(root)["blocks"]) == n_keys
    assert _extract(root, executor) == (expected, 0)


def test_a_persisted_field_skips_the_eigenvalue_pass(root, monkeypatch):
    _extract(root)
    calls = []
    real = lambda2_module.lambda2_points
    monkeypatch.setattr(
        lambda2_module, "lambda2_points",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )
    _extract(root)
    assert calls == []


def test_a_persisted_field_is_data_params_may_name(root):
    """Params are checked against the fields the data holds: λ2 counts
    once it has been derived beside the blocks, and not before."""
    iso = {"isovalue": -1.0, "scalar": "lambda2", "time_range": (0, 2)}
    with ParallelExtractor(DatasetStore(root), workers=1, executor="serial") as ext:
        with pytest.raises(ParamError, match="no field 'lambda2'"):
            ext.run("iso-dataman", params=iso)
    _extract(root)  # derives and persists λ2 of "velocity"
    with ParallelExtractor(DatasetStore(root), workers=1, executor="serial") as ext:
        assert ext.store.field_components["lambda2"] == 1
        assert ext.run("iso-dataman", params=iso).result.n_triangles > 0


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_lambda2_of_another_field_never_reads_the_stored_one(root, executor):
    swirl = dict(VORTEX, velocity="swirl")
    expected = _fresh(root, swirl)
    assert expected != _fresh(root)
    _extract(root, executor)  # derives and persists λ2 of "velocity"
    assert _extract(root, executor, swirl) == (expected, 0)


def test_stores_not_read_from_disk_persist_nothing(tmp_path):
    """A synthetic dataset's store persists λ2 under its own private
    directory, which goes with the store: nothing outlives it."""
    with ParallelExtractor(cached_engine(4, 2), workers=2,
                           executor="serial") as ext:
        ext.run("vortex-dataman", params=VORTEX)
        assert ext.store.lacking("lambda2", [0, 1]) == []
        private = ext.store._private
        derived = [p for p in ext.store.mapped_files if p.endswith(".f8")]
        assert derived and all(
            os.path.dirname(p) == str(private / DERIVED_DIR) for p in derived
        )
    assert not private.exists()


# -------------------------------------------------------------- never stale
def test_write_dataset_to_the_same_root_drops_derived(root, n_keys):
    _extract(root)
    assert (root / DERIVED_DIR).is_dir()
    _write(root, scale=2.0)
    assert not (root / DERIVED_DIR).exists()
    assert _extract(root) == (_fresh(root), n_keys)


def _rewrite_block(root, t: int, b: int, extra_field: bool) -> None:
    """Replace one block file behind the store's back: velocity doubled
    (so λ2 changes), optionally one more field (so the size changes)."""
    store = DatasetStore(root)
    block = store.read_block(t, b)
    block.set_field("velocity", block.field("velocity") * 2.0)
    if extra_field:
        block.set_field("extra", np.zeros(block.shape))
    path = store.block_path(t, b)
    with open(path, "wb") as fh:
        write_block(fh, block)


def test_a_block_rewritten_out_of_band_invalidates_its_entry(root):
    _extract(root)
    path = DatasetStore(root).block_path(1, 2)
    before = os.stat(path)
    _rewrite_block(root, 1, 2, extra_field=False)
    # Same size; make the mtime differ even on a coarse clock.
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    assert os.stat(path).st_size == before.st_size
    assert _extract(root) == (_fresh(root), 1)
    assert _extract(root) == (_fresh(root), 0)


def test_a_block_of_another_size_invalidates_its_entry_at_the_same_mtime(root):
    _extract(root)
    path = DatasetStore(root).block_path(0, 1)
    before = os.stat(path)
    _rewrite_block(root, 0, 1, extra_field=True)
    # A rewrite within one mtime tick: only the size tells.
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size != before.st_size
    assert _extract(root) == (_fresh(root), 1)
    assert _extract(root) == (_fresh(root), 0)


# -------------------------------------------------------------- never wrong
def test_a_truncated_data_file_is_ignored_and_rewritten(root, n_keys):
    expected = _fresh(root)
    _extract(root)
    data = _data_file(root)
    size = data.stat().st_size
    with open(data, "r+b") as fh:
        fh.truncate(size // 2)
    got, derived = _extract(root)
    assert got == expected and 0 < derived < n_keys
    assert _data_file(root).stat().st_size == size
    assert _extract(root) == (expected, 0)


def test_an_entry_of_the_wrong_shape_is_ignored_and_rewritten(root):
    expected = _fresh(root)
    _extract(root)
    index = _index(root)
    entry = index["blocks"][3]
    entry["shape"] = [1, 1, 1]
    (root / DERIVED_DIR / "lambda2.json").write_text(json.dumps(index))
    assert _extract(root) == (expected, 1)
    assert _index(root)["blocks"][3]["shape"] != entry["shape"]
    assert _extract(root) == (expected, 0)


def test_an_index_that_does_not_parse_is_ignored(root, n_keys):
    expected = _fresh(root)
    _extract(root)
    (root / DERIVED_DIR / "lambda2.json").write_text("{not json")
    assert _extract(root) == (expected, n_keys)
    assert _extract(root) == (expected, 0)


# ----------------------------------------------------------- never required
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_failing_write_still_extracts_and_leaves_no_temp_file(
    root, n_keys, executor, monkeypatch
):
    expected = _fresh(root)

    def refuse(src, dst):
        raise OSError(30, "Read-only file system", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    assert _extract(root, executor) == (expected, n_keys)
    assert _extract(root, executor) == (expected, n_keys)
    assert os.listdir(root / DERIVED_DIR) == []
    monkeypatch.undo()
    assert _extract(root, executor) == (expected, n_keys)
    assert _extract(root, executor) == (expected, 0)
