"""A dataset rewritten under a live store reads old or fails, never mixed.

Every process maps the block files read-only.  ``write_dataset`` replaces
each file whole (a new inode), so a map made before keeps the old bytes,
and a worker that maps a file only after it was replaced finds a stamp
other than the parent's and raises :class:`FormatError`.  Nothing may
crash the interpreter or a worker, and no run may combine old blocks
with new ones.
"""

import os
import shutil

import pytest

from repro.io import DatasetStore, write_dataset
from repro.io.format import FormatError
from repro.parallel import ParallelExtractor, ShmBlockStore
from tests.conftest import cached_engine

PARAMS = {
    "iso-dataman": {"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 2)},
    "vortex-dataman": {"threshold": -1.0, "time_range": (0, 2)},
}


def _write(root, scale: float) -> DatasetStore:
    eng = cached_engine(4, 2)
    levels = [eng.level(t) for t in range(2)]
    for level in levels:
        for block in level:
            block.set_field("pressure", block.field("pressure") * scale + 0.1)
            block.set_field("velocity", block.field("velocity") * scale)
    return write_dataset(
        root, levels, modeled_shapes=list(eng.spec.modeled_shapes),
        times=eng.spec.times[:2],
    )


def _bytes(mesh) -> bytes:
    return mesh.vertices.tobytes() + mesh.triangles.tobytes()


def _fresh(root, command: str, schedule) -> bytes:
    with ParallelExtractor(DatasetStore(root), workers=2, executor="serial") as ext:
        return _bytes(ext.run(command, params=PARAMS[command], schedule=schedule).result)


@pytest.mark.parametrize("schedule", [None, "dynamic"])
@pytest.mark.parametrize("command", sorted(PARAMS))
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_rewrite_under_a_live_store_reads_old_or_fails(
    tmp_path, executor, command, schedule
):
    _write(tmp_path, 1.0)
    with ParallelExtractor(DatasetStore(tmp_path), workers=2,
                           executor=executor) as ext:
        first = ext.run(command, params=PARAMS[command], schedule=schedule)
        old = _bytes(first.result)
        _write(tmp_path, 1.5)
        for _run in range(2):
            try:
                again = ext.run(command, params=PARAMS[command], schedule=schedule)
            except FormatError:
                # The first serial run mapped every block of the range
                # (culling reads each one's range), so only a worker
                # mapping a file late can fail.
                assert executor == "process"
                continue
            assert _bytes(again.result) == old
        if executor == "process":
            assert not ext._pool.closed  # no worker died
    assert _fresh(tmp_path, command, schedule) != old


def _replace_in_place_of(path) -> None:
    """Replace the file at ``path`` by a copy of itself: same size, same
    mtime, another inode."""
    st = os.stat(path)
    tmp = f"{path}.tmp"
    shutil.copyfile(path, tmp)
    os.utime(tmp, ns=(st.st_atime_ns, st.st_mtime_ns))
    os.replace(tmp, path)


def test_a_worker_mapping_a_replaced_block_raises(tmp_path):
    store = _write(tmp_path, 1.0)
    with ShmBlockStore.from_store(store) as parent:
        held = parent.get_block(1, 1)
        _replace_in_place_of(store.block_path(1, 1))
        _replace_in_place_of(store.block_path(1, 2))
        attached = ShmBlockStore.attach(parent.manifest())
        try:
            attached.get_block(1, 0)  # untouched: maps fine
            for b in (1, 2):
                with pytest.raises(FormatError, match="replaced"):
                    attached.get_block(1, b)
        finally:
            attached.close()
        # The parent's block mapped before the replacement still reads
        # the file it stamped; one it maps only now fails the same way.
        assert parent.get_block(1, 1) is held and held.n_points > 0
        with pytest.raises(FormatError, match="replaced"):
            parent.get_block(1, 2)
    with ParallelExtractor(store, workers=2, executor="process") as ext:
        for t in range(2):  # the parent reads every block's range first
            ext.store.block_ranges("pressure", t)
        _replace_in_place_of(store.block_path(0, 0))
        with pytest.raises(FormatError, match="replaced"):
            ext.run("iso-dataman", params=PARAMS["iso-dataman"])
        assert not ext._pool.closed
