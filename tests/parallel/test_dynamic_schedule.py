"""Dynamic work-stealing must not change a single byte of output.

Tasks are drained off a shared ticket in arbitrary interleavings, but
payloads are reassembled by canonical task index before merging — so
``schedule="dynamic"`` at any worker count must reproduce the serial
group-1 static bytes exactly.  These suites
prove that for every command family, plus the scheduler bookkeeping
around it: steal/idle accounting, cost-feedback reordering, and the
strictness of the canonical reassembly itself.
"""

import pytest

from repro.core.commands import (
    ParamError, command_context, default_batch, may_contain,
)
from repro.parallel import SCHEDULES, ParallelExtractor
from repro.parallel.dynamic import CostFeedback, TaskResult, payload_lists

from .test_equivalence import CUTPLANE, ISO, PATHLINES, VORTEX, _mesh_bytes

#: one value, still a parameter so the test ids keep their "-dynamic".
DYNAMIC = ("dynamic",)


def _serial_static(store, command, params):
    with ParallelExtractor(store, workers=1, executor="serial") as ext:
        return ext.run(command, params=params)


def _dynamic(store, executor, workers, command, params, schedule):
    with ParallelExtractor(store, workers=workers, executor=executor) as ext:
        return ext.run(command, params=params, schedule=schedule)


@pytest.mark.parametrize("schedule", DYNAMIC)
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize(
    "command,params",
    [
        ("iso-dataman", ISO),
        ("vortex-dataman", VORTEX),
        ("cutplane", CUTPLANE),
    ],
)
def test_dynamic_mesh_commands_byte_identical(
    engine_store, command, params, workers, schedule
):
    reference = _serial_static(engine_store, command, params)
    for executor in ("serial", "process"):
        got = _dynamic(engine_store, executor, workers, command, params, schedule)
        assert got.schedule == schedule
        assert _mesh_bytes(got.result) == _mesh_bytes(reference.result)


@pytest.mark.parametrize("schedule", DYNAMIC)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_dynamic_pathlines_demand_order_preserved(
    engine_store, workers, schedule
):
    """Each path must come back in its seed's slot regardless of which
    worker stole the seed's task."""
    reference = _serial_static(engine_store, "pathlines-dataman", PATHLINES)
    for executor in ("serial", "process"):
        got = _dynamic(
            engine_store, executor, workers, "pathlines-dataman",
            PATHLINES, schedule,
        )
        assert len(got.result) == len(PATHLINES["seeds"])
        for a, b in zip(reference.result, got.result):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.times.tobytes() == b.times.tobytes()


def test_dynamic_share_accounting(engine_store):
    with ParallelExtractor(engine_store, workers=4, executor="process") as ext:
        res = ext.run("iso-dataman", params=ISO, schedule="dynamic")
        cmd = ext.registry.create("iso-dataman")
        ctx = command_context(cmd, ext.store, ext.store.time_indices, ISO, ext.costs)
        tasks = cmd.plan_tasks(ctx)
        live = may_contain(
            {t: ext.store.block_ranges(ISO["scalar"], t) for t in ctx.time_indices},
            ISO["isovalue"],
        )
        n_live = sum(1 for [(t, b)] in tasks if live(t, b))
    assert res.schedule == "dynamic"
    assert res.idle_seconds >= 0.0
    assert res.steals >= 0
    for share in res.shares:
        assert share.idle_s >= 0.0
        assert share.steals >= 0
        # No claim on len(share.tasks): a late-forked worker that finds
        # the tickets drained legally returns none.
        for task in share.tasks:
            assert isinstance(task, TaskResult)
            assert task.seconds >= 0.0
    # Every live canonical task index executed exactly once; the parent
    # dealt the culled ones to no one.
    indices = sorted(t.task_index for s in res.shares for t in s.tasks)
    assert indices == [i for i, [(t, b)] in enumerate(tasks) if live(t, b)]
    assert res.n_culled == len(tasks) - n_live


def test_dynamic_metrics_exported(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        ext.run("iso-dataman", params=ISO, schedule="dynamic")
        snap = ext.metrics.snapshot()
    assert "viracocha_parallel_idle_seconds_total" in snap
    assert "viracocha_parallel_steals_total" in snap


def test_cost_feedback_reorders_second_run(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ext:
        first = ext.run("iso-dataman", params=ISO, schedule="dynamic")
        # Keyed by every canonical task: those run and those culled.
        n_tasks = sum(len(s.tasks) for s in first.shares) + first.n_culled
        assert ext.cost_feedback.recorded("iso-dataman", n_tasks)
        second = ext.run("iso-dataman", params=ISO, schedule="dynamic")
    # Feedback changes placement, never bytes.
    assert _mesh_bytes(first.result) == _mesh_bytes(second.result)


def test_static_default_untouched(engine_store):
    """No schedule argument → the static path, bit-for-bit as before."""
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        res = ext.run("iso-dataman", params=ISO)
    assert res.schedule == "static"
    assert res.steals == 0


def test_removed_schedule_name_fails_loudly(engine_store):
    """``schedule`` takes only ``SCHEDULES``, as the keyword or as a
    param; a typo, the removed third schedule or the progressive
    command's traversal must not silently run static."""
    assert SCHEDULES == ("static", "dynamic")
    with ParallelExtractor(engine_store, workers=1, executor="serial") as ext:
        for name in ("dynamic+pipeline", "dynamic+pipelin", "level-major"):
            with pytest.raises(ParamError, match="static.*dynamic"):
                ext.run("iso-dataman", params=ISO, schedule=name)
            with pytest.raises(ParamError, match="static.*dynamic"):
                ext.run("iso-dataman", params=dict(ISO, schedule=name))
        res = ext.run("iso-dataman", params=dict(ISO, schedule="static"))
    assert res.schedule == "static"


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_malformed_seed_fails_with_its_index(engine_store, schedule):
    """Six numbers are not two seeds, and two are not one: every seed is
    checked before any share or task is dealt."""
    with ParallelExtractor(engine_store, workers=1, executor="serial") as ext:
        for seeds, index in (
            ([[0, 0, 1, 0.1, 0.1, 1.1]], 0),
            ([[0.2, 0.1, 0.8], [0.2, 0.1]], 1),
            ([[0.2, 0.1, 0.8], [0.1, float("nan"), 0.9]], 1),
        ):
            with pytest.raises(ValueError, match=f"seed {index} must be three"):
                ext.run(
                    "pathlines-dataman", params={"seeds": seeds}, schedule=schedule
                )


def test_cli_rejects_removed_schedule(capsys):
    from repro.__main__ import main as cli_main

    assert cli_main(["extract", "iso", "--schedule", "dynamic+pipeline"]) == 2
    assert "one of static|dynamic," in capsys.readouterr().out


def test_default_batch():
    assert default_batch(0, 4) == 1
    assert default_batch(288, 4) == 9
    assert default_batch(7, 4) == 1


def _records(pairs):
    return [
        TaskResult(task_index=i, payloads=[p]) for i, p in pairs
    ]


def test_payload_lists_reassembles_canonical_order():
    records = _records([(2, "c"), (0, "a"), (1, "b")])
    assert payload_lists(records, 3) == [["a"], ["b"], ["c"]]


def test_payload_lists_rejects_missing_duplicate_and_out_of_range():
    with pytest.raises(ValueError):
        payload_lists(_records([(0, "a")]), 2)  # missing task 1
    with pytest.raises(ValueError):
        payload_lists(_records([(0, "a"), (0, "b")]), 2)  # duplicate
    with pytest.raises(ValueError):
        payload_lists(_records([(0, "a"), (5, "b")]), 2)  # out of range


def test_cost_feedback_prefers_measurements_over_model():
    class FakeCommand:
        name = "fake"

        def task_cost(self, ctx, task):
            return 1.0

    fb = CostFeedback()
    cmd = FakeCommand()
    tasks = [object(), object(), object()]
    # No measurements yet: the model's uniform estimate.
    assert fb.estimates(cmd, None, tasks) == [1.0, 1.0, 1.0]
    fb.record(
        "fake",
        _records([(0, None), (1, None), (2, None)]),
        3,
    )
    # All-zero timings don't count as a measurement either.
    assert fb.estimates(cmd, None, tasks) == [1.0, 1.0, 1.0]
    measured = [
        TaskResult(task_index=i, payloads=[], seconds=s)
        for i, s in ((0, 0.5), (1, 2.0), (2, 0.1))
    ]
    fb.record("fake", measured, 3)
    assert fb.estimates(cmd, None, tasks) == [0.5, 2.0, 0.1]
