"""Property-based proof that steal interleavings can't corrupt output.

A dynamic run is, in the end, a partition of the canonical task list
into per-worker claim sequences plus an interleaving of their
completions.  A seeded fake pool below replays *arbitrary* such
schedules — any batch split, any claim order, any completion shuffle,
workers that claim nothing — through the real share loop
(:func:`~repro.parallel.runner.execute_share`).  Whatever the schedule,
canonical reassembly (:func:`payload_lists`) plus the command's merge
must reproduce the serial group-1 bytes, and batched pathlines must
keep every particle in its seed's demand slot.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commands import default_registry
from repro.core.commands import Deal, command_context
from repro.parallel import ParallelExtractor
from repro.parallel.dynamic import TaskResult, payload_lists
from repro.parallel.runner import DirectRunner, execute_share

from .test_equivalence import ISO, PATHLINES, _mesh_bytes

REGISTRY = default_registry()


class ReplayRunner:
    """A runner whose work unit *i* yields the payloads task *i*
    produced once, serially — so a property run replays scheduling and
    reassembly only, not the numerics."""

    def __init__(self, task_payloads: list[list]):
        self.task_payloads = task_payloads

    def run_share(self, command, ctx, unit, worker_index) -> TaskResult:
        return TaskResult(task_index=-1, payloads=list(self.task_payloads[unit]))


class FakeStealingPool:
    """Deterministic replay of one steal schedule; stands in for
    :class:`~repro.parallel.ProcessWorkerPool`.

    ``seed`` drives the ticket order, batch sizes and which worker
    claims next — the degrees of freedom a real ticket-counter pool
    has; workers in ``starved`` never win a claim.  The claim sequences
    are fed to the real share loop over ``runner``, so the loop, the
    records it builds and everything downstream are what is under test.
    """

    closed = False

    def __init__(self, runner, n_workers: int, seed: int, starved=()):
        self.runner = runner
        self.n_workers = n_workers
        self.rng = random.Random(seed)
        self.claimers = [w for w in range(n_workers) if w not in starved]

    def run_shares(self, command, ctx, deal):
        work = deal.units
        # Arbitrary ticket order over the live canonical indices (the
        # cost model could impose any; the prune may have dropped some).
        order = list(deal.order)
        n_tasks = len(order)
        self.rng.shuffle(order)
        pos = 0
        claims: list[list[int]] = [[] for _ in range(self.n_workers)]
        while pos < n_tasks:
            batch = self.rng.randint(1, max(1, n_tasks // 2))
            worker = self.rng.choice(self.claimers)
            claims[worker].extend(order[pos:pos + batch])
            pos += batch
        return [
            execute_share(
                self.runner, command, ctx, work, iter(claimed), w, deal.fair_share
            )
            for w, claimed in enumerate(claims)
        ]

    def close(self):
        pass


def _replay(payloads: list[list], n_workers: int, seed: int):
    """Every task's record from one seeded schedule, completions
    observed in arbitrary global order."""
    pool = FakeStealingPool(ReplayRunner(payloads), n_workers, seed)
    n_tasks = len(payloads)
    deal = Deal(
        list(range(n_tasks)), list(range(n_tasks)), 1,
        math.ceil(n_tasks / n_workers), n_workers,
    )
    shares = pool.run_shares(None, None, deal)
    records = [rec for share in shares for rec in share.tasks]
    pool.rng.shuffle(records)
    return records


def _task_payloads(store, command_name, params):
    """Each canonical task executed once by the real serial runner."""
    command = REGISTRY.create(command_name)
    runner = DirectRunner(
        lambda item: store.read_block(
            int(item.param("time")), int(item.param("block"))
        )
    )
    with ParallelExtractor(store, workers=1, executor="serial") as ext:
        ctx = command_context(
            command, ext.store, ext.store.time_indices, params, ext.costs
        )
        tasks = command.plan_tasks(ctx)
        payloads = [
            list(runner.run_share(command, ctx, task, 0).payloads)
            for task in tasks
        ]
    return command, payloads


@pytest.fixture(scope="module")
def iso_reference(engine_store):
    command, payloads = _task_payloads(engine_store, "iso-dataman", ISO)
    merged = command.merge(payloads)
    return command, payloads, _mesh_bytes(merged)


@pytest.fixture(scope="module")
def pathline_reference(engine_store):
    command, payloads = _task_payloads(
        engine_store, "pathlines-dataman", PATHLINES
    )
    merged = command.merge(payloads)
    return command, payloads, merged


@given(seed=st.integers(0, 10_000), n_workers=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_any_steal_interleaving_preserves_iso_bytes(
    iso_reference, seed, n_workers
):
    command, payloads, ref_bytes = iso_reference
    records = _replay(payloads, n_workers, seed)
    merged = command.merge(payload_lists(records, len(payloads)))
    assert _mesh_bytes(merged) == ref_bytes


@given(seed=st.integers(0, 10_000), n_workers=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_any_steal_interleaving_preserves_pathline_demand_order(
    pathline_reference, seed, n_workers
):
    command, payloads, reference = pathline_reference
    records = _replay(payloads, n_workers, seed)
    merged = command.merge(payload_lists(records, len(payloads)))
    assert len(merged) == len(reference) == len(PATHLINES["seeds"])
    for got, ref in zip(merged, reference):
        assert got.points.tobytes() == ref.points.tobytes()
        assert got.times.tobytes() == ref.times.tobytes()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fake_pool_covers_every_task_exactly_once(iso_reference, seed):
    _, payloads, _ = iso_reference
    records = _replay(payloads, 3, seed)
    assert sorted(r.task_index for r in records) == list(range(len(payloads)))


def test_starved_worker_is_legal_end_to_end(engine_store):
    """A worker that finds the tickets drained returns an empty share;
    the merge, the cost feedback, the metrics and the spans accept it."""
    with ParallelExtractor(engine_store, workers=1, executor="serial") as ref:
        reference = ref.run("iso-dataman", params=ISO)
    with ParallelExtractor(engine_store, workers=3, executor="process") as ext:
        ext._pool = FakeStealingPool(ext._serial_runner, 3, seed=7, starved={1})
        res = ext.run("iso-dataman", params=ISO, schedule="dynamic")
        snap = ext.metrics.snapshot()
        spans = ext.tracer.spans
    starved = res.shares[1]
    assert starved.tasks == [] and starved.payloads == []
    assert starved.steals == 0 and starved.n_loads == 0
    assert starved.idle_s > 0.0  # tail idle: slot 2 was still running
    assert _mesh_bytes(res.result) == _mesh_bytes(reference.result)
    # The profile covers every canonical task: those run and those culled.
    n_tasks = sum(len(share.tasks) for share in res.shares) + res.n_culled
    profile = ext.cost_feedback.recorded("iso-dataman", n_tasks)
    assert profile is not None and len(profile) == n_tasks
    labels = {"command": "iso-dataman", "executor": "process"}
    assert ext.metrics.counter("parallel_shares_total", labels).value == 3
    assert "viracocha_parallel_idle_seconds_total" in snap
    for kind in ("parallel-share", "parallel-idle"):
        assert any(s.kind == kind and s.node == 1 for s in spans), kind
