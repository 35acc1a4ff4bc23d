"""Tests for the command protocol: ops, planning, registry, cost model."""

import numpy as np
import pytest

from repro.commands import IsoDataManCommand, default_registry
from repro.core import (
    Command,
    CommandContext,
    CommandRegistry,
    Compute,
    DEFAULT_COSTS,
    Emit,
    Load,
    Prefetch,
    split_round_robin,
)
from repro.core.commands import deal, may_contain
from repro.core.costs import CostModel
from repro.dms import SyntheticSource, block_item
from repro.synth import build_engine


@pytest.fixture(scope="module")
def ctx():
    engine = build_engine(base_resolution=4, n_timesteps=3)
    source = SyntheticSource(engine)
    return CommandContext(
        dataset="engine",
        handles_by_time=[source.handles(t) for t in range(3)],
        params=IsoDataManCommand.resolve({"isovalue": -0.3}, range(3)),
        costs=DEFAULT_COSTS,
        time_offset=0,
        times=engine.spec.times,
    )


# --------------------------------------------------------------- helpers


def test_split_round_robin_deals_evenly():
    shares = split_round_robin(list(range(10)), 3)
    assert [len(s) for s in shares] == [4, 3, 3]
    assert shares[0] == [0, 3, 6, 9]


def test_split_round_robin_more_workers_than_items():
    shares = split_round_robin([1, 2], 4)
    assert shares == [[1], [2], [], []]


def test_split_round_robin_validation():
    with pytest.raises(ValueError):
        split_round_robin([1], 0)


# --------------------------------------------------------------- context


def test_context_handle_lookup(ctx):
    h = ctx.handle(1, 5)
    assert h.block_id == 5
    with pytest.raises(KeyError):
        ctx.handle(99, 0)
    with pytest.raises(KeyError):
        ctx.handle(0, 999)


def test_context_handle_index_keeps_scan_semantics(ctx):
    import dataclasses
    import pickle

    with pytest.raises(KeyError, match="time index 99 outside command range"):
        ctx.handle(99, 0)
    with pytest.raises(KeyError, match="no handle for block 999 at t=0"):
        ctx.handle(0, 999)
    for rel, handles in enumerate(ctx.handles_by_time):
        for h in handles:
            assert ctx.handle(rel, h.block_id) is h
    # Like the scan it replaces, the index answers with the first
    # handle of a block id, and it does not travel with the context.
    first = ctx.handles_by_time[0][0]
    twin = dataclasses.replace(first, shape=(2, 2, 2))
    dup = dataclasses.replace(ctx, handles_by_time=[[first, twin]])
    assert dup.handle(0, first.block_id) is first
    shipped = pickle.loads(pickle.dumps(dup))
    assert shipped._handle_index is None and dup._handle_index is not None
    assert shipped.handle(0, first.block_id) == first


def test_context_without_a_range_table_never_culls(ctx):
    """A context carries no range table, and a deal without a liveness
    test (the DES's) prunes nothing; the parent's test refuses exactly
    what a stored range excludes."""
    cmd = IsoDataManCommand()
    assert not hasattr(ctx, "block_ranges")
    plain = deal(cmd, ctx, 2)
    assert plain.culled == () and not plain.dead
    assert plain.units == cmd.plan(ctx, 2)

    live = may_contain({0: {0: (-1.0, 1.0)}}, 1.0)
    assert live(0, 0)                                   # closed interval
    assert live(0, 1)                                   # unknown block
    assert live(1, 0)                                   # unknown level
    assert may_contain({}, 5.0)(0, 0)                   # unknown scalar: no table
    assert not may_contain({0: {0: (-1.0, 1.0)}}, 1.0000001)(0, 0)
    assert deal(cmd, ctx, 2, live=live).culled == ()    # only a refusal culls
    tabled = {0: {0: (-1.0, 1.0)}, 1: {0: (-1.0, 1.0)}}
    for value in (1.0000001, -2.0):
        pruned = deal(cmd, ctx, 2, live=may_contain(tabled, value))
        assert pruned.culled == ((0, 0), (1, 0))
        # Each share keeps its other pairs, in order.
        assert pruned.units == [
            [pair for pair in share if pair not in pruned.culled]
            for share in plain.units
        ]


def test_context_time_indices(ctx):
    assert list(ctx.time_indices) == [0, 1, 2]
    assert ctx.n_timesteps == 3


def test_context_with_offset():
    engine = build_engine(base_resolution=4, n_timesteps=4)
    source = SyntheticSource(engine)
    ctx = CommandContext(
        dataset="engine",
        handles_by_time=[source.handles(t) for t in (2, 3)],
        params={},
        costs=DEFAULT_COSTS,
        time_offset=2,
        times=engine.spec.times[2:4],
    )
    assert list(ctx.time_indices) == [2, 3]
    assert ctx.handle(3, 0).time_index == 3


# -------------------------------------------------------------- registry


def test_default_registry_has_all_commands():
    reg = default_registry()
    for name in [
        "iso-simple",
        "iso-dataman",
        "iso-viewer",
        "vortex-simple",
        "vortex-dataman",
        "vortex-streamed",
        "pathlines-simple",
        "pathlines-dataman",
        "cutplane",
        "cutplane-streamed",
        "iso-progressive",
    ]:
        assert name in reg


def test_registry_unknown_command():
    with pytest.raises(KeyError, match="unknown command"):
        default_registry().create("warp-drive")


def test_registry_rejects_duplicates_and_non_commands():
    reg = CommandRegistry()

    class Foo(Command):
        name = "foo"

    reg.register(Foo)
    with pytest.raises(ValueError):
        reg.register(Foo)
    with pytest.raises(TypeError):
        reg.register(object)  # type: ignore[arg-type]


# ------------------------------------------------------- command driving


def drive(command, ctx, assignment, blocks_by_item, worker_index=0):
    """Drive a command generator by hand, answering ops synchronously."""
    ops = []
    gen = command.run(ctx, assignment, worker_index)
    result = None
    while True:
        try:
            op = gen.send(result)
        except StopIteration:
            break
        ops.append(op)
        result = None
        if isinstance(op, Load):
            result = blocks_by_item(op.item)
        elif isinstance(op, Compute):
            result = op.fn() if op.fn else None
    return ops


def test_iso_command_op_stream(ctx):
    reg = default_registry()
    command = reg.create("iso-dataman")
    plan = command.plan(ctx, group_size=2)
    assert len(plan) == 2
    assert sum(len(a) for a in plan) == 3 * 23

    engine = build_engine(base_resolution=4, n_timesteps=3)

    def supply(item):
        return engine.build_block(item.param("time"), item.param("block"))

    ops = drive(command, ctx, plan[0][:4], supply)
    loads = [o for o in ops if isinstance(o, Load)]
    computes = [o for o in ops if isinstance(o, Compute)]
    emits = [o for o in ops if isinstance(o, Emit)]
    assert len(loads) == 4
    assert len(computes) == 4
    assert all(c.cost > 0 for c in computes)
    for e in emits:
        assert e.nbytes > 0


def test_iso_command_item_sequence_matches_plan(ctx):
    command = default_registry().create("iso-dataman")
    plan = command.plan(ctx, 2)
    seq = command.item_sequence_for(ctx, plan[1])
    assert seq[0] == block_item("engine", plan[1][0][0], plan[1][0][1])
    assert len(seq) == len(plan[1])


def test_viewer_iso_plans_front_to_back():
    engine = build_engine(base_resolution=4, n_timesteps=1)
    source = SyntheticSource(engine)
    ctx = CommandContext(
        dataset="engine",
        handles_by_time=[source.handles(0)],
        params={"isovalue": -0.3, "viewpoint": (0.0, 0.0, -10.0)},
        costs=DEFAULT_COSTS,
        times=engine.spec.times[:1],
    )
    command = default_registry().create("iso-viewer")
    (assignment,) = command.plan(ctx, 1)
    vp = np.array([0.0, 0.0, -10.0])
    d = [np.sum((ctx.handle(t, b).center() - vp) ** 2) for t, b in assignment]
    assert d == sorted(d)


def test_command_prefetcher_specs():
    reg = default_registry()
    assert reg.create("iso-simple").prefetcher == "none"
    assert reg.create("iso-dataman").prefetcher == "obl"
    assert reg.create("pathlines-dataman").prefetcher == "block-markov"
    # ... and each is the default of the command's ``prefetch`` param.
    for name in reg.names():
        cls = reg.command_class(name)
        assert cls.declaration()["prefetch"].default == cls.prefetcher


def test_command_flags():
    reg = default_registry()
    assert not reg.create("iso-simple").use_dms
    assert reg.create("iso-dataman").use_dms
    assert reg.create("iso-viewer").streaming
    assert not reg.create("vortex-dataman").streaming
    assert reg.create("vortex-streamed").streaming


def test_default_merge_concatenates_meshes():
    from repro.viz import TriangleMesh

    cmd = default_registry().create("iso-dataman")
    m1 = TriangleMesh(np.zeros((3, 3)))
    m2 = TriangleMesh(np.ones((6, 3)))
    merged = cmd.merge([[m1], [m2]])
    assert merged.n_triangles == 3


# ------------------------------------------------------------ cost model


def test_cost_model_block_costs_scale_with_modeled_cells():
    from repro.grids import BlockHandle

    small = BlockHandle("d", 0, 0, (3, 3, 3), (5, 5, 5), (0, 0, 0), (1, 1, 1))
    big = BlockHandle("d", 1, 0, (3, 3, 3), (9, 9, 9), (0, 0, 0), (1, 1, 1))
    costs = CostModel()
    assert costs.iso_block_cost(big, 0.1) > costs.iso_block_cost(small, 0.1)
    assert costs.lambda2_block_cost(big, 0.1) > costs.iso_block_cost(big, 0.1)


def test_result_bytes_uses_area_scaling():
    from repro.grids import BlockHandle

    h = BlockHandle("d", 0, 0, (3, 3, 3), (17, 17, 17), (0, 0, 0), (1, 1, 1))
    costs = CostModel(result_wire_factor=1.0)
    expected = 1000 * h.scale_factor ** (2 / 3)
    assert costs.result_bytes(1000, h) == int(expected)
