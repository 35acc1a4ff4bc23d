"""Blocks live as long as their store.

``ShmBlockStore.get_block`` hands out one block object per key until
``close()``, in the parent and in every attached worker, so derived
data memoised on a block (cell intervals, λ2, the particle tracer's
``CellLocator``) serves every later run.  Reuse must change no byte,
must not let one run write into the next run's input, and must not
keep a file mapped past ``close()``.
"""

import gc
import os
import shutil
import weakref

import pytest

from repro.core.commands import Command, Emit, Load, plan_block_assignments
from repro.dms.items import block_item
from repro.grids import interpolate as interpolate_module
from repro.grids import summary as summary_module
from repro.io.dataset_io import DERIVED_DIR
from repro.parallel import ParallelExtractor, ShmBlockStore
from tests.parallel.conftest import holds_shared_memory

ISO = {"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 2)}
VORTEX = {"threshold": 0.0, "time_range": (0, 2)}
CUTPLANE = {"normal": (0.0, 0.0, 1.0), "offset": 0.8, "time_range": (0, 1)}
PATHLINES = {
    "seeds": [[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9], [0.0, -0.4, 1.1], [0.1, 0.0, 0.7]],
    "time_range": (0, 2),
    "max_steps": 60,
}
COMMANDS = {
    "iso-dataman": ISO,
    "vortex-dataman": VORTEX,
    "cutplane": CUTPLANE,
    "pathlines-dataman": PATHLINES,
}


def _bytes(result) -> bytes:
    if isinstance(result, list):  # pathlines
        return b"".join(p.points.tobytes() + p.times.tobytes() for p in result)
    return result.vertices.tobytes() + result.triangles.tobytes()


# ------------------------------------------------------------- the store
def test_get_block_returns_one_object_per_key_until_close(engine_store):
    store = ShmBlockStore.from_store(engine_store)
    try:
        block = store.get_block(0, 1)
        assert store.get_block(0, 1) is block
        assert store.get_block(0, 0) is not block
        pressure = block.field("pressure")
        assert store.get_block(0, 1).field("pressure") is pressure
        del block, pressure
    finally:
        store.cleanup()
    assert store._blocks == {}


def test_block_fields_are_read_only(engine_store):
    with ShmBlockStore.from_store(engine_store) as store:
        with pytest.raises(ValueError, match="read-only"):
            store.get_block(0, 0).field("pressure")[0, 0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            store.get_block(0, 0).field("velocity")[0, 0, 0, 0] = 0


def test_late_derived_field_grafts_onto_the_handed_out_block(engine_store):
    from repro.algorithms.lambda2 import lambda2_field

    with ShmBlockStore.from_store(engine_store) as store:
        block = store.get_block(0, 2)
        lam = lambda2_field(block, "velocity")
        minmax = summary_module.cell_field_minmax(block, "pressure")
        store.add_derived_fields("lambda2", {(0, 2): lam})
        assert store.get_block(0, 2) is block
        assert block.fields.raw_view("lambda2") is not None
        assert block.field("lambda2").tobytes() == lam.tobytes()
        # Entries that do not read the new field survive the graft.
        assert lambda2_field(block, "velocity") is lam
        assert summary_module.cell_field_minmax(block, "pressure") is minmax
        del block, lam, minmax


# ------------------------------------------------------ across many runs
@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_second_run_bytes_equal_a_fresh_extractor(engine_store, executor, schedule):
    fresh = {}
    for name, params in COMMANDS.items():
        with ParallelExtractor(engine_store, workers=2, executor=executor) as ext:
            fresh[name] = _bytes(ext.run(name, params=params, schedule=schedule).result)
    with ParallelExtractor(engine_store, workers=2, executor=executor) as ext:
        for _round in range(2):
            for name, params in COMMANDS.items():
                got = ext.run(name, params=params, schedule=schedule).result
                assert _bytes(got) == fresh[name], (name, _round)


def test_serial_second_run_derives_nothing(engine_store, monkeypatch):
    counts = {"minmax": 0, "locator": 0}
    real_fold = summary_module._fold_minmax
    real_init = interpolate_module.CellLocator.__init__

    def fold(*args, **kwargs):
        counts["minmax"] += 1
        return real_fold(*args, **kwargs)

    def init(self, *args, **kwargs):
        counts["locator"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(summary_module, "_fold_minmax", fold)
    monkeypatch.setattr(interpolate_module.CellLocator, "__init__", init)
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ext:
        ext.run("iso-dataman", params=ISO)
        ext.run("pathlines-dataman", params=PATHLINES)
        assert counts["minmax"] > 0 and counts["locator"] > 0
        counts.update(minmax=0, locator=0)
        ext.run("iso-dataman", params=ISO)
        ext.run("pathlines-dataman", params=PATHLINES)
    assert counts == {"minmax": 0, "locator": 0}


class _Probe(Command):
    """Reports, per block, whether it carries a stored λ2 and whether it
    still holds the λ2 memo entry an earlier vortex run left on it."""

    name = "probe"

    def plan(self, ctx, group_size):
        return plan_block_assignments(ctx, group_size)

    def run(self, ctx, assignment, worker_index):
        for t, bid in assignment:
            block = yield Load(block_item(ctx.dataset, t, bid))
            yield Emit(
                (
                    block.has_field("lambda2"),
                    ("lambda2", "velocity") in block._memo,
                ),
                0,
            )

    def merge(self, payload_lists):
        return [p for payloads in payload_lists for p in payloads]


def _derive_spans(ext):
    return [s for s in ext.tracer.finished() if s.kind == "parallel-precompute"]


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_precompute_after_a_run_reaches_the_cached_blocks(engine_store, executor):
    # One worker, so every key lives in the one process that probes it.
    with ParallelExtractor(engine_store, workers=1, executor=executor) as first:
        expected = _bytes(first.run("vortex-dataman", params=VORTEX).result)
    # The vortex run persisted lambda2; drop it so the next store lacks it.
    shutil.rmtree(engine_store.root / DERIVED_DIR)
    with ParallelExtractor(engine_store, workers=1, executor=executor) as ext:
        # A run that reads no derived field hands every block out first.
        assert not any(has for has, _kept in ext.run(_Probe(), params={"time_range": VORTEX["time_range"]}).result)
        parent = ext.store.get_block(0, 0)
        # A vortex run over both levels derives lambda2 for every block.
        derived = ext.run("vortex-dataman", params=VORTEX).result
        [derive] = _derive_spans(ext)
        assert derive.attrs["n_blocks"] == 2 * engine_store.n_blocks
        assert parent.has_field("lambda2") and ext.store.get_block(0, 0) is parent
        del parent
        probed = ext.run(_Probe(), params={"time_range": VORTEX["time_range"]}).result
        assert len(probed) == 2 * engine_store.n_blocks
        assert all(has and kept for has, kept in probed)
        assert _bytes(derived) == expected
        assert _bytes(ext.run("vortex-dataman", params=VORTEX).result) == expected
        # The second run finds every block derived and records no derive.
        assert len(_derive_spans(ext)) == 1


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("command", ["iso-dataman", "vortex-dataman", "pathlines-dataman"])
def test_close_unmaps_every_segment(engine_store, command, executor):
    """Every file map dies with ``close()``; the pool's result arenas,
    the only shared-memory segments, are unlinked."""
    ext = ParallelExtractor(engine_store, workers=2, executor=executor)
    # Results stay referenced through close(): they must hold no view.
    results, arenas = [], set()
    for _ in range(3):
        results.append(ext.run(command, params=COMMANDS[command]))
        if ext._pool is not None:
            arenas.update(ext._pool.arena_names)
    maps = [weakref.ref(buf.obj) for buf in ext.store._maps.values()]
    if executor == "serial":
        # The runs kept their blocks, and so their maps, until close.
        # (Under the pool the parent maps only what it reads itself.)
        assert ext.store._blocks and maps
    assert not holds_shared_memory(ext.store)
    ext.close()
    gc.collect()
    assert ext.store._maps == {} and ext.store._blocks == {}
    assert all(ref() is None for ref in maps)
    assert not any(os.path.exists("/dev/shm/" + name) for name in arenas)
    assert all(r.result for r in results)

