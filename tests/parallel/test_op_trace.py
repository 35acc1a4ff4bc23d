"""Both clocks run one op stream: a cross-clock op-trace differential.

A command is a generator over ``Load``/``Compute``/``ComputeCached``/
``Emit`` ops, and two interpreters drive it: the DES worker under
simulated time (``ViracochaSession``) and the direct runner on real
cores (``ParallelExtractor``).  Each registered command class is wrapped
so that every op it yields is recorded as ``(op type, item, cost,
nbytes, sha256 of the emitted geometry)``, keyed by the work unit's
assignment, and both clocks run every ``DEMO_PARAMS`` command over one
on-disk Engine store at group 1 and 2, static and dynamic.

* With culling off (the wrapper names nothing to cull on and no
  derived field) the two traces are equal unit for unit.
* With culling on, the real path's parent deals no block whose stored
  range excludes the command's value; its trace is the DES trace minus
  the ops of exactly the pairs the parent culled (a block's ops run
  from its ``Load`` to the next one): each unit keeps its live pairs,
  and a unit the prune emptied does not run.  The DES never culls.
"""

import ast
import hashlib

import numpy as np
import pytest

from repro import ViracochaSession
from repro.commands import ALL_COMMANDS, DEMO_PARAMS
from repro.core.commands import (
    CommandRegistry,
    Compute,
    ComputeCached,
    Emit,
    Load,
)
from repro.dms.items import block_item
from repro.parallel import ParallelExtractor, ShmBlockStore, api

GROUPS = (1, 2)
#: every command at group 1 and 2 under both schedules, except that
#: ``iso-progressive`` reads ``params["schedule"]`` as its own traversal
#: ("level-major") and so runs static only.
CASES = [
    (command, group, schedule)
    for command in sorted(DEMO_PARAMS)
    for group in GROUPS
    for schedule in ("static", "dynamic")
    if not (command == "iso-progressive" and schedule == "dynamic")
]
#: the commands whose blocks the real path culls on this store.
CULLING = {"iso-dataman", "iso-simple", "iso-viewer", "vortex-dataman", "vortex-simple"}


def _feed(h, value) -> None:
    """Hash every array a payload holds at full precision."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(h, item)
    elif hasattr(value, "__dict__"):
        _feed(h, vars(value))
    else:
        h.update(repr(value).encode())


def _digest(payload) -> str | None:
    if payload is None:
        return None
    h = hashlib.sha256()
    _feed(h, payload)
    return h.hexdigest()


def _record(op) -> tuple:
    if isinstance(op, Load):
        return ("Load", str(op.item), None, None, None)
    if isinstance(op, Compute):
        return ("Compute", None, op.cost, None, None)
    if isinstance(op, ComputeCached):
        return ("ComputeCached", str(op.item), op.cost, op.nbytes, None)
    if isinstance(op, Emit):
        return ("Emit", op.kind, None, int(op.nbytes), _digest(op.payload))
    return (type(op).__name__, str(getattr(op, "item", "")), None, None, None)


def _recording(cls, traces: dict, cull: bool):
    """``cls`` with every yielded op appended to ``traces[assignment]``."""

    class Recording(cls):
        def run(self, ctx, assignment, worker_index):
            ops = traces.setdefault(repr(assignment), [])
            gen = super().run(ctx, assignment, worker_index)
            result = None
            while True:
                try:
                    op = gen.send(result)
                except StopIteration:
                    return
                ops.append(_record(op))
                result = yield op

        if not cull:
            def cull_on(self, ctx):
                return None

            def derived_field(self, ctx):
                return None

    Recording.__name__ = Recording.__qualname__ = cls.__name__
    return Recording


def _registry(traces: dict, cull: bool) -> CommandRegistry:
    registry = CommandRegistry()
    for cls in ALL_COMMANDS:
        registry.register(_recording(cls, traces, cull))
    return registry


def _params(command: str, schedule: str) -> dict:
    if schedule == "static":
        return dict(DEMO_PARAMS[command])
    return dict(DEMO_PARAMS[command], schedule=schedule)


def _des_trace(store, command, group, schedule) -> dict:
    traces: dict = {}
    with ShmBlockStore.from_store(store) as shm:
        session = ViracochaSession(
            shm, n_workers=2, registry=_registry(traces, cull=False)
        )
        session.run(command, params=_params(command, schedule), group_size=group)
    return traces


def _real_trace(store, command, group, schedule, cull) -> dict:
    traces: dict = {}
    with ParallelExtractor(
        store, workers=2, executor="serial", registry=_registry(traces, cull)
    ) as ext:
        ext.run(command, params=_params(command, schedule), group_size=group)
    return traces


def _split(ops: list, culled: set) -> tuple[list, list]:
    """``ops`` without, and only, the ops of blocks in ``culled``: a
    block's ops run from its ``Load`` up to the next ``Load``."""
    kept, dropped, dropping = [], [], False
    for op in ops:
        if op[0] == "Load":
            dropping = op[1] in culled
        (dropped if dropping else kept).append(op)
    return kept, dropped


@pytest.fixture(scope="module")
def des_traces(engine_store):
    """The DES trace per (command, group, schedule); the DES never culls,
    so one run serves both comparisons."""
    return {case: _des_trace(engine_store, *case) for case in CASES}


@pytest.mark.parametrize("command,group,schedule", CASES)
def test_culling_off_traces_are_equal(
    engine_store, des_traces, command, group, schedule
):
    des = des_traces[command, group, schedule]
    real = _real_trace(engine_store, command, group, schedule, cull=False)
    assert des and all(des.values())  # every unit ran and recorded ops
    assert sorted(real) == sorted(des)
    for unit, ops in des.items():
        assert real[unit] == ops, unit


@pytest.mark.parametrize("command,group,schedule", CASES)
def test_culling_on_drops_only_culled_blocks(
    engine_store, des_traces, monkeypatch, command, group, schedule
):
    pairs: set = set()  # the (level, block) pairs the parent culled
    deal = api.deal

    def recording_deal(*args, **kwargs):
        dealt = deal(*args, **kwargs)
        pairs.update(dealt.culled)
        return dealt

    monkeypatch.setattr(api, "deal", recording_deal)
    des = des_traces[command, group, schedule]
    real = _real_trace(engine_store, command, group, schedule, cull=True)
    assert bool(pairs) == (command in CULLING)
    culled = {str(block_item(engine_store.name, t, b)) for t, b in pairs}
    expected = {}
    for unit, ops in des.items():
        kept, dropped = _split(ops, culled)
        # Only a block that emits nothing on the DES may be culled.
        assert "Emit" not in [op[0] for op in dropped], unit
        if pairs:
            live = [pair for pair in ast.literal_eval(unit) if pair not in pairs]
            if not live:
                assert not kept, unit  # emptied: dealt to no slot
                continue
            unit = repr(live)
        expected[unit] = kept
    assert sorted(real) == sorted(expected)
    for unit, ops in expected.items():
        assert real[unit] == ops, unit
