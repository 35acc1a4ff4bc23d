"""What a pool run sends each worker.

A slot's call carries the command, its context without block handles,
the level range, the slot's work and the run's knobs; each worker takes
the handles from the store it attached at pool start.  So the bytes
pickled per slot do not grow with the store's block count, and a
command in a worker sees the same handles the parent planned with.
"""

import pickle

import pytest

from repro.core.commands import Command, Emit
from repro.parallel import ParallelExtractor
from repro.parallel.pool import ProcessWorkerPool
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
