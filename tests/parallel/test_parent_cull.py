"""The parent culls: a block its stored range excludes never crosses to
a worker.

``ParallelExtractor.run`` deals with a liveness test built from the
store's range tables (:func:`repro.core.commands.may_contain`), so a
slot is sent only live units, a pre-dealt share the prune empties is
sent to no worker, a drain's batch and claim order count live tasks
only, culled canonical indices merge as nothing, and a run the prune
empties starts no pool.  The bytes stay the serial extractor's, pruned
or not.
"""

import inspect

import pytest

from repro.commands import (
    DEMO_PARAMS,
    IsoDataManCommand,
    ViewerIsoCommand,
    VortexDataManCommand,
)
from repro.core.commands import (
    Command,
    command_context,
    deal,
    default_batch,
    may_contain,
)
from repro.parallel import ParallelExtractor
from repro.parallel.pool import ProcessWorkerPool, _run_slot

from .test_equivalence import ISO, VORTEX, _mesh_bytes

VIEWER = dict(DEMO_PARAMS["iso-viewer"], time_range=(0, 2))


class _Unpruned:
    """Mixin: the command with nothing to cull on, so every block is dealt."""

    def cull_on(self, ctx):
        return None


class UnprunedIso(_Unpruned, IsoDataManCommand):
    name = "iso-unpruned"


class UnprunedViewer(_Unpruned, ViewerIsoCommand):
    name = "iso-viewer-unpruned"


class UnprunedVortex(_Unpruned, VortexDataManCommand):
    name = "vortex-unpruned"


CASES = [
    (IsoDataManCommand, UnprunedIso, ISO),
    (ViewerIsoCommand, UnprunedViewer, VIEWER),
    (VortexDataManCommand, UnprunedVortex, VORTEX),
]


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_a_run_the_prune_empties_starts_no_pool(engine_store, monkeypatch, schedule):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for a run with nothing live")

    monkeypatch.setattr(ProcessWorkerPool, "__init__", no_pool)
    params = dict(ISO, isovalue=1e9)
    n_blocks = 2 * engine_store.n_blocks
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        res = ext.run("iso-dataman", params=params, schedule=schedule)
        assert ext._pool is None  # no pool, so no result arena either
        culled = ext.metrics.counter(
            "parallel_blocks_culled_total",
            {"command": "iso-dataman", "executor": "process"},
        ).value
        [run] = [s for s in ext.tracer.spans if s.kind == "parallel-run"]
    assert res.result.n_triangles == 0 and res.shares == []
    assert res.n_loads == 0 and res.n_culled == n_blocks == culled
    n_units = n_blocks if schedule == "dynamic" else 2
    assert (run.attrs["n_units"], run.attrs["n_live"], run.attrs["n_culled"]) == (
        n_units, 0, n_blocks,
    )


def _live_tasks(ext, params) -> tuple[list, set]:
    cmd = ext.registry.create("iso-dataman")
    ctx = command_context(cmd, ext.store, ext.store.time_indices, params, ext.costs)
    tasks = cmd.plan_tasks(ctx)
    live = may_contain(
        {t: ext.store.block_ranges(params["scalar"], t) for t in ctx.time_indices},
        params["isovalue"],
    )
    return tasks, {i for i, [(t, b)] in enumerate(tasks) if live(t, b)}


def test_a_drain_sends_only_live_tasks(engine_store, monkeypatch):
    calls = _spy_on_slots(monkeypatch)
    group = 2
    with ParallelExtractor(engine_store, workers=group, executor="process") as ext:
        tasks, live = _live_tasks(ext, ISO)
        res = ext.run("iso-dataman", params=ISO, schedule="dynamic")
        [run] = [s for s in ext.tracer.spans if s.kind == "parallel-run"]
    assert 0 < len(live) < len(tasks)
    assert len(calls) == group
    for args in calls:
        assert set(args["work"]) == live
        assert sorted(args["order"]) == sorted(live)
        assert args["batch"] == default_batch(len(live), group)
        assert args["fair_share"] == -(-len(live) // group)
    assert sorted(t.task_index for s in res.shares for t in s.tasks) == sorted(live)
    assert res.n_culled == len(tasks) - len(live)
    assert (run.attrs["n_units"], run.attrs["n_live"], run.attrs["n_culled"]) == (
        len(tasks), len(live), res.n_culled,
    )


def _spy_on_slots(monkeypatch) -> list[dict]:
    """Every ``_run_slot`` call the pool makes, its arguments by name."""
    calls: list[dict] = []
    gather = ProcessWorkerPool._gather
    signature = inspect.signature(_run_slot)

    def spy(pool, run_calls):
        calls.extend(signature.bind(*call[1:]).arguments for call in run_calls)
        return gather(pool, run_calls)

    monkeypatch.setattr(ProcessWorkerPool, "_gather", spy)
    return calls


def test_a_share_the_prune_empties_is_sent_to_no_worker(engine_store, monkeypatch):
    """On Engine-4's level 0 at group 4 the prune empties one of the
    four pre-dealt shares: three slots run, and the bytes stay the
    serial extractor's."""
    calls = _spy_on_slots(monkeypatch)
    group, params = 4, dict(ISO, time_range=(0, 1))
    with ParallelExtractor(engine_store, workers=group, executor="serial") as ref:
        want = ref.run("iso-dataman", params=params)
    with ParallelExtractor(engine_store, workers=group, executor="process") as ext:
        got = ext.run("iso-dataman", params=params)
    ran = [res.share_index for res in got.shares]
    assert len(calls) == len(ran) == group - 1
    assert [args["slot"] for args in calls] == ran
    assert [res.share_index for res in want.shares] == ran
    assert got.n_loads == want.n_loads and got.n_culled == want.n_culled > 0
    assert _mesh_bytes(got.result) == _mesh_bytes(want.result)


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("group", [1, 2])
@pytest.mark.parametrize("pruned,unpruned,params", CASES)
def test_pruned_bytes_equal_the_serial_extractors(
    engine_store, pruned, unpruned, params, group, schedule
):
    kw = dict(params=params, group_size=group, schedule=schedule)
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ref:
        want = _mesh_bytes(ref.run(unpruned(), **kw).result)
        serial = ref.run(pruned(), **kw)
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        got = ext.run(pruned(), **kw)
    assert got.n_culled == serial.n_culled > 0
    assert _mesh_bytes(serial.result) == _mesh_bytes(got.result) == want


class _TwoShares(Command):
    """Plans one share holding blocks (0, 0) and (0, 1) and one empty
    share, whatever the group; its tasks are the same two units."""

    name = "two-shares"

    def plan(self, ctx, group_size):
        return [[(0, 0), (0, 1)], []]


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_a_commands_own_empty_unit_still_runs(engine_store, schedule):
    """Only what the prune emptied is dead; a run it left nothing in
    has no slot."""
    with ParallelExtractor(engine_store, workers=1, executor="serial") as ext:
        ctx = command_context(
            _TwoShares, ext.store, ext.store.time_indices,
            {"schedule": schedule}, ext.costs,
        )
    plain = deal(_TwoShares(), ctx, 2)
    assert plain.slots() == [0, 1] and not plain.dead
    some = deal(_TwoShares(), ctx, 2, live=lambda t, b: b == 1)
    assert some.culled == ((0, 0),) and some.units == [[(0, 1)], []]
    assert some.slots() == [0, 1] and not some.dead
    none = deal(_TwoShares(), ctx, 2, live=lambda t, b: False)
    assert none.culled == ((0, 0), (0, 1)) and none.units == [[], []]
    if schedule == "dynamic":
        # The emptied task is dead; the command's own empty task runs.
        assert none.dead == {0} and none.order == [1]
        assert none.slots() == [0, 1]
    else:
        assert none.dead == {0, 1} and none.slots() == []
