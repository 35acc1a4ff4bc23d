"""What a pool run sends each worker.

A slot's call carries the command, its context without block handles,
the level range, the slot's live work and the run's knobs; each worker
takes the handles from the store it attached at pool start, and the
derived-field manifest from the store state shipped only until every
worker has synced it.  No range table crosses: the parent pruned the
deal.  So the bytes pickled
per slot, its work units aside, do not grow with the store's block
count, and a command in a worker sees the same handles the parent
planned with.
"""

import inspect
import pickle

import pytest

from repro.core.commands import Command, Emit
from repro.parallel import ParallelExtractor
from repro.parallel.pool import ProcessWorkerPool, _run_slot
from repro.synth import build_propfan
from tests.conftest import cached_engine


class RecordHandles(Command):
    """Emits, from each worker, the levels and block handles its
    context holds there."""

    name = "record-handles"

    def plan(self, ctx, group_size):
        return [None] * group_size

    def run(self, ctx, assignment, worker_index):
        handles = [list(hs) for hs in ctx.handles_by_time]
        yield Emit((ctx.time_offset, handles), nbytes=0)

    def merge(self, payload_lists):
        return [p for payloads in payload_lists for p in payloads]


def _slot_call_bytes(data, monkeypatch) -> list[int]:
    """Pickled bytes of each slot's ``_run_slot`` arguments in one
    process run over ``data``."""
    sizes: list[int] = []
    gather = ProcessWorkerPool._gather

    def spy(pool, calls):
        sizes.extend(len(pickle.dumps(call[1:])) for call in calls)
        return gather(pool, calls)

    monkeypatch.setattr(ProcessWorkerPool, "_gather", spy)
    with ParallelExtractor(data, workers=2, executor="process") as ext:
        ext.run(RecordHandles())
        assert ext.store.n_blocks == data.spec.n_blocks
    return sizes


def test_slot_arguments_do_not_grow_with_the_block_count(monkeypatch):
    few = _slot_call_bytes(cached_engine(4, 2), monkeypatch)  # 23 blocks a level
    monkeypatch.undo()
    many = _slot_call_bytes(build_propfan(base_resolution=3, n_timesteps=2), monkeypatch)
    assert len(few) == len(many) == 2
    # The two contexts differ only in the dataset's name and times; the
    # 242 extra block handles (~100 B each) must not cross the pipe.
    assert max(abs(a - b) for a, b in zip(few, many)) < 64


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_a_worker_sees_the_parents_handles(schedule):
    with ParallelExtractor(cached_engine(4, 3), workers=2, executor="process") as ext:
        res = ext.run(RecordHandles(), params={"time_range": (1, 3)}, schedule=schedule)
        want = (1, [ext.store.handles(t) for t in (1, 2)])
    assert res.result and all(seen == want for seen in res.result)


def _synced_call_bytes(data, monkeypatch) -> list[int]:
    """Pickled bytes of each slot's ``_run_slot`` arguments but its work
    units and claim order (which list its blocks), in a ``vortex-dataman``
    run once lambda2 is derived and every worker has synced the store."""
    calls: list[dict] = []
    gather = ProcessWorkerPool._gather

    def spy(pool, run_calls):
        signature = inspect.signature(_run_slot)
        calls[:] = [signature.bind(*call[1:]).arguments for call in run_calls]
        return gather(pool, run_calls)

    monkeypatch.setattr(ProcessWorkerPool, "_gather", spy)
    with ParallelExtractor(data, workers=2, executor="process") as ext:
        ext.run("vortex-dataman")  # derives lambda2, then culls on it
        # The state holds the derived manifest alone: no range table.
        assert calls and all(
            set(args["state"]) == {"generation", "derived"} and args["state"]["derived"]
            for args in calls
        )
        for _ in range(10):
            if ext._pool._all_synced():
                break
            ext.run("vortex-dataman")
        else:
            pytest.fail("a worker process never reported the store state")
        ext.run("vortex-dataman")
    assert all(args["state"] is None for args in calls)
    return [
        len(pickle.dumps({k: v for k, v in args.items() if k not in ("work", "order")}))
        for args in calls
    ]


def test_derived_state_ships_only_until_every_worker_synced(monkeypatch):
    few = _synced_call_bytes(cached_engine(4, 2), monkeypatch)  # 46 blocks
    monkeypatch.undo()
    many = _synced_call_bytes(build_propfan(base_resolution=3, n_timesteps=2), monkeypatch)
    assert len(few) == len(many) == 2
    # The derived manifest (~22 B per block) stays home once the
    # workers hold it.
    assert max(abs(a - b) for a, b in zip(few, many)) < 64
