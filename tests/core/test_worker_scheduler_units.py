"""Unit tests driving Worker / Scheduler internals with stub commands."""

import numpy as np
import pytest

from repro.core import (
    Command,
    CommandContext,
    CommandRegistry,
    Compute,
    DEFAULT_COSTS,
    Emit,
    Load,
    Mailbox,
    Prefetch,
)
from repro.core.scheduler import Scheduler
from repro.core.worker import Worker
from repro.des import ClusterConfig, Environment, SimCluster
from repro.dms import DataManagerServer, DataProxy, DMSConfig, SyntheticSource, block_item
from repro.synth import build_engine


class ProbeCommand(Command):
    """Loads two blocks, computes, prefetches, emits twice."""

    name = "probe"
    streaming = False
    use_dms = True

    def plan(self, ctx, group_size):
        items = [(0, b) for b in range(4)]
        from repro.core import split_round_robin

        return split_round_robin(items, group_size)

    def run(self, ctx, assignment, worker_index):
        self.seen_blocks = []
        for t, bid in assignment:
            block = yield Load(block_item(ctx.dataset, t, bid))
            self.seen_blocks.append(block.block_id)
            yield Prefetch(block_item(ctx.dataset, t, (bid + 1) % 23))
            value = yield Compute(1e6, lambda b=block: b.n_cells)
            assert value > 0
            yield Emit(payload=("cells", value), nbytes=512)


class StreamingProbe(ProbeCommand):
    name = "probe-streaming"
    streaming = True


@pytest.fixture()
def world():
    env = Environment()
    cluster = SimCluster(env, ClusterConfig(n_workers=2))
    server = DataManagerServer()
    source = SyntheticSource(build_engine(base_resolution=4, n_timesteps=2))
    proxy = DataProxy(env, cluster, cluster.worker_nodes[0], server, source)
    worker = Worker(env, cluster, cluster.worker_nodes[0], proxy, source, 0)
    ctx = CommandContext(
        dataset="engine",
        handles_by_time=[source.handles(0), source.handles(1)],
        params={},
        costs=DEFAULT_COSTS,
        times=[0.0, 1.0],
    )
    return env, cluster, worker, ctx


def run_exec(env, worker, command, ctx, assignment, client_box):
    proc = env.process(
        worker.execute(
            command, ctx, assignment, 0, request_id=7, client_mailbox=client_box, unit=0
        )
    )
    share = env.run(until=proc)
    env.run()  # drain prefetch background loads
    return share


def test_worker_buffers_in_batch_mode(world):
    env, cluster, worker, ctx = world
    box = Mailbox(env)
    command = ProbeCommand()
    share = run_exec(env, worker, command, ctx, [(0, 0), (0, 1)], box)
    assert share.packets_streamed == 0
    assert len(share.payloads) == 2
    assert share.nbytes == 1024
    assert len(box) == 0  # nothing streamed
    assert command.seen_blocks == [0, 1]


def test_worker_streams_in_streaming_mode(world):
    env, cluster, worker, ctx = world
    box = Mailbox(env)
    command = StreamingProbe()
    share = run_exec(env, worker, command, ctx, [(0, 0), (0, 1)], box)
    assert share.packets_streamed == 2
    assert len(share.payloads) == 0
    assert len(box) == 2
    assert cluster.worker_nodes[0].breakdown.send > 0


def test_worker_prefetch_op_issues_background_load(world):
    env, cluster, worker, ctx = world
    box = Mailbox(env)
    run_exec(env, worker, ProbeCommand(), ctx, [(0, 0)], box)
    stats = worker.proxy.stats
    assert stats.prefetches_issued >= 1


def test_worker_prefetch_ignored_without_dms(world):
    env, cluster, worker, ctx = world
    box = Mailbox(env)
    command = ProbeCommand()
    command.use_dms = False
    run_exec(env, worker, command, ctx, [(0, 0)], box)
    assert worker.proxy.stats.prefetches_issued == 0
    assert worker.proxy.stats.requests == 0  # bypassed entirely


def test_worker_rejects_unknown_op(world):
    env, cluster, worker, ctx = world

    class BadCommand(Command):
        name = "bad"

        def plan(self, ctx, n):
            return [None]

        def run(self, ctx, assignment, widx):
            yield "not-an-op"

    box = Mailbox(env)
    proc = env.process(
        worker.execute(
            BadCommand(), ctx, None, 0, request_id=1, client_mailbox=box, unit=0
        )
    )
    with pytest.raises(TypeError, match="unknown op"):
        env.run(until=proc)


def test_scheduler_rejects_bad_group_size():
    env = Environment()
    cluster = SimCluster(env, ClusterConfig(n_workers=2))
    source = SyntheticSource(build_engine(base_resolution=4, n_timesteps=1))
    registry = CommandRegistry()
    registry.register(ProbeCommand)
    sched = Scheduler(env, cluster, source, registry)
    box = Mailbox(env)
    for bad in (0, 3):
        gen = sched.run_command("probe", {}, bad, box, request_id=1)
        with pytest.raises(ValueError):
            env.run(until=env.process(gen))


def test_scheduler_runs_custom_command_end_to_end():
    env = Environment()
    cluster = SimCluster(env, ClusterConfig(n_workers=2))
    source = SyntheticSource(build_engine(base_resolution=4, n_timesteps=1))
    registry = CommandRegistry()
    registry.register(ProbeCommand)
    sched = Scheduler(env, cluster, source, registry)
    box = Mailbox(env)
    proc = env.process(sched.run_command("probe", {}, 2, box, request_id=5))
    record = env.run(until=proc)
    env.run()
    assert record.command == "probe"
    assert record.group_size == 2
    assert len(record.shares) == 2
    assert record.runtime > 0
    # Final merged package reached the client mailbox.
    assert len(box) == 1
    assert sched.history[-1] is record


def test_scheduler_clear_caches_unregisters_holders():
    env = Environment()
    cluster = SimCluster(env, ClusterConfig(n_workers=1))
    source = SyntheticSource(build_engine(base_resolution=4, n_timesteps=1))
    registry = CommandRegistry()
    registry.register(ProbeCommand)
    sched = Scheduler(env, cluster, source, registry)
    box = Mailbox(env)
    proc = env.process(sched.run_command("probe", {}, 1, box, request_id=2))
    env.run(until=proc)
    env.run()
    proxy = sched.workers[0].proxy
    assert len(proxy.cache.l1) > 0
    ident = proxy.resolver.resolve(block_item("engine", 0, 0))
    assert sched.server.holders(ident)
    sched.clear_caches()
    assert len(proxy.cache.l1) == 0
    assert not sched.server.holders(ident)


def test_scheduler_aggregates_dms_stats():
    env = Environment()
    cluster = SimCluster(env, ClusterConfig(n_workers=2))
    source = SyntheticSource(build_engine(base_resolution=4, n_timesteps=1))
    registry = CommandRegistry()
    registry.register(ProbeCommand)
    sched = Scheduler(env, cluster, source, registry)
    box = Mailbox(env)
    proc = env.process(sched.run_command("probe", {}, 2, box, request_id=3))
    env.run(until=proc)
    env.run()
    agg = sched.aggregate_dms_stats()
    assert agg.requests == 4


def test_scheduler_history_is_bounded(make_session):
    """Run records carry merged geometry; the scheduler keeps only the
    last HISTORY_LEN of them, so its memory stays flat over many ops."""
    import gc
    import weakref

    from repro.core.scheduler import HISTORY_LEN

    session = make_session(n_workers=2)
    records, merged = [], []
    for i in range(4 * HISTORY_LEN):
        session.run(
            "iso-dataman",
            params={"isovalue": -0.3 + 0.05 * i, "scalar": "pressure",
                    "time_range": (0, 1)},
        )
        assert len(session.scheduler.history) <= HISTORY_LEN
        record = session.scheduler.history[-1]
        assert record.merged is not None
        records.append(weakref.ref(record))
        merged.append(weakref.ref(record.merged))
        del record
    gc.collect()
    assert [r() is not None for r in records] == (
        [False] * (len(records) - HISTORY_LEN) + [True] * HISTORY_LEN
    )
    assert sum(m() is not None for m in merged) == HISTORY_LEN
    assert list(session.scheduler.history) == [r() for r in records[-HISTORY_LEN:]]
