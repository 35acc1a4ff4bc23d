"""Failure semantics of the process pool: crashes, errors, no leaks."""

import os

import pytest

from repro.core.commands import Command, Compute, Emit, Load, plan_block_assignments
from repro.dms.items import block_item
from repro.parallel import ParallelExtractor, WorkerPoolError


class CrashingCommand(Command):
    """Kills its worker process mid-share (simulates a segfault/OOM)."""

    name = "crash-hard"

    def plan(self, ctx, group_size):
        return plan_block_assignments(ctx, group_size)

    def run(self, ctx, assignment, worker_index):
        for t, bid in assignment:
            yield Load(block_item(ctx.dataset, t, bid))
            yield Compute(1.0, lambda: os._exit(13))


class RaisingCommand(Command):
    """Raises an ordinary exception inside the worker."""

    name = "crash-soft"

    def plan(self, ctx, group_size):
        return plan_block_assignments(ctx, group_size)

    def run(self, ctx, assignment, worker_index):
        for t, bid in assignment:
            block = yield Load(block_item(ctx.dataset, t, bid))
            raise ValueError(f"bad block {block.block_id}")
            yield Emit(block, 0)


def _arena_paths(ext: ParallelExtractor) -> list[str]:
    """The pool's result arenas: the only shared-memory segments."""
    return ["/dev/shm/" + name for name in ext._pool.arena_names]


def test_worker_crash_raises_and_shuts_down(engine_store):
    ext = ParallelExtractor(engine_store, workers=2, executor="process")
    iso = {"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 1)}
    for _ in range(2):
        ext.run("iso-dataman", params=iso)
    paths = _arena_paths(ext)
    with pytest.raises(WorkerPoolError):
        ext.run(CrashingCommand(), params={"time_range": (0, 1)})
    # The broken pool was shut down, not left wedged.
    assert ext._pool is None or ext._pool.closed
    assert not any(os.path.exists(p) for p in paths)
    ext.close()
    assert ext.store._maps == {}


def test_pool_recovers_after_crash(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        with pytest.raises(WorkerPoolError):
            ext.run(CrashingCommand(), params={"time_range": (0, 1)})
        # A fresh pool is built transparently for the next run.
        res = ext.run(
            "iso-dataman",
            params={"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 1)},
        )
        assert res.result.n_triangles > 0


def test_ordinary_exceptions_propagate_unchanged(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        with pytest.raises(ValueError, match="bad block"):
            ext.run(RaisingCommand(), params={"time_range": (0, 1)})
        # The pool survives ordinary exceptions.
        assert ext._pool is not None and not ext._pool.closed


def test_closed_extractor_refuses_work(engine_store):
    ext = ParallelExtractor(engine_store, workers=1, executor="process")
    ext.close()
    with pytest.raises(RuntimeError, match="closed"):
        ext.run("iso-dataman", params={"isovalue": 0.0, "scalar": "pressure"})


def test_close_releases_all_segments(engine_store):
    ext = ParallelExtractor(engine_store, workers=2, executor="process")
    for _ in range(2):
        ext.run("vortex-dataman", params={"threshold": 0.0, "time_range": (0, 1)})
    # The first run derived lambda2 on the pool: its file is mapped too.
    [derive] = [s for s in ext.tracer.finished() if s.kind == "parallel-precompute"]
    assert derive.attrs["n_blocks"] == engine_store.n_blocks
    paths = _arena_paths(ext)
    assert paths and all(os.path.exists(p) for p in paths)
    assert ext.store.mapped_files
    ext.close()
    assert not any(os.path.exists(p) for p in paths)
    assert ext.store.mapped_files == []


def test_invalid_arguments():
    with pytest.raises(ValueError, match="executor"):
        ParallelExtractor(object(), executor="threads")  # noqa: arg check first
    with pytest.raises(TypeError, match="ShmBlockStore"):
        ParallelExtractor(object())
