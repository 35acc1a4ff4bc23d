"""One deal for both clocks: :func:`repro.core.commands.deal` decides the
units, claim order, batch and fair share wherever a command runs, so
``group_size`` and ``params["steal_batch"]`` mean the same thing on the
DES and on the real path."""

import math

import pytest

from repro import ViracochaSession
from repro.commands import DEMO_PARAMS, default_registry
from repro.core.commands import ParamError, command_context, deal, default_batch
from repro.parallel import ParallelExtractor, ShmBlockStore

from .test_equivalence import _mesh_bytes

ISO = DEMO_PARAMS["iso-dataman"]
VORTEX = DEMO_PARAMS["vortex-dataman"]
#: everything but an integer >= 1.
BAD_BATCHES = (0, -3, "abc", 2.5, True)


def _ctx(store, params):
    with ParallelExtractor(store, workers=1, executor="serial") as ext:
        return command_context(
            ext.registry.command_class("iso-dataman"), ext.store,
            ext.store.time_indices, params, ext.costs,
        )


def test_static_deals_one_share_per_slot(engine_store):
    cmd = default_registry().create("iso-dataman")
    dealt = deal(cmd, _ctx(engine_store, ISO), 3)
    assert dealt.order is None and len(dealt.units) == dealt.group == 3
    assert dealt.fair_share == 1
    assert dealt.tickets() == [[0], [1], [2]]


@pytest.mark.parametrize("steal_batch", [None, 1, 5])
def test_dynamic_deals_lpt_tasks_in_batches(engine_store, steal_batch):
    params = dict(ISO, schedule="dynamic")
    if steal_batch is not None:
        params["steal_batch"] = steal_batch
    cmd = default_registry().create("iso-dataman")
    ctx = _ctx(engine_store, params)
    dealt = deal(cmd, ctx, 2)
    n = len(dealt.units)
    assert dealt.units == cmd.plan_tasks(ctx)
    assert sorted(dealt.order) == list(range(n))
    costs = [cmd.task_cost(ctx, unit) for unit in dealt.units]
    assert [costs[i] for i in dealt.order] == sorted(costs, reverse=True)
    assert dealt.batch == (steal_batch or default_batch(n, 2))
    assert dealt.fair_share == math.ceil(n / 2)
    assert [u for ticket in dealt.tickets() for u in ticket] == dealt.order
    # Measured weights replace the model's.
    reverse = deal(cmd, ctx, 2, weights=lambda units: list(range(len(units))))
    assert reverse.order == list(range(n))[::-1]


@pytest.mark.parametrize("group_size", [1, 2])
def test_process_dynamic_drain_runs_group_size_slots(engine_store, group_size):
    """The pool drains with ``group_size`` slots, not with its width."""
    with ParallelExtractor(engine_store, workers=1, executor="serial") as ref:
        reference = ref.run("iso-dataman", params=ISO)
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        res = ext.run(
            "iso-dataman", params=ISO, schedule="dynamic", group_size=group_size
        )
    assert res.group_size == group_size
    assert len(res.shares) <= group_size
    assert _mesh_bytes(res.result) == _mesh_bytes(reference.result)


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("steal_batch", BAD_BATCHES)
def test_deal_rejects_bad_steal_batch(engine_store, steal_batch, schedule):
    """The declaration refuses the batch at the front door, before any
    context is built or dealt."""
    params = dict(ISO, schedule=schedule, steal_batch=steal_batch)
    cls = default_registry().command_class("iso-dataman")
    with pytest.raises(ParamError, match="steal_batch must be an integer >= 1"):
        cls.validate(params, range(3))


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("steal_batch", BAD_BATCHES)
def test_real_path_rejects_bad_steal_batch_before_the_pool(
    engine_store, steal_batch, executor
):
    """vortex derives λ2 across the pool before it runs; the bad batch
    must be refused before that."""
    params = dict(VORTEX, schedule="dynamic", steal_batch=steal_batch)
    with ParallelExtractor(engine_store, workers=2, executor=executor) as ext:
        with pytest.raises(ValueError, match="steal_batch must be an integer >= 1"):
            ext.run("vortex-dataman", params=params)
        assert ext._pool is None
        assert ext.store.lacking("lambda2", ext.store.time_indices)  # nothing derived


@pytest.mark.parametrize("steal_batch", BAD_BATCHES)
def test_des_rejects_bad_steal_batch(engine_store, steal_batch):
    params = dict(ISO, schedule="dynamic", steal_batch=steal_batch)
    with ShmBlockStore.from_store(engine_store) as store:
        session = ViracochaSession(store, n_workers=2)
        with pytest.raises(ValueError, match="steal_batch must be an integer >= 1"):
            session.run("iso-dataman", params=params, group_size=2)
