"""Direct (wall-clock) execution of command shares.

Commands are generators over plain ops (§3's layer split); the DES
worker interprets them under simulated time.  :class:`DirectRunner` is
the other interpreter: it drives the *same* generator against real data
with no simulation at all — ``Load`` pulls the block from a provider,
``Compute`` runs the closure immediately, ``Emit`` collects the payload
in order, ``Prefetch`` is a no-op (the mapped block store is already
resident).  Because the op stream, the numerics and the emit order are
exactly those of the serial simulated path, results merged in share
order are byte-identical to a serial run by construction.

:func:`execute_share` is the one loop every executor and schedule runs
a slot's work through: it claims canonical work-unit indices from an
iterator, interprets each unit and assembles the :class:`ShareResult`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..core.commands import (
    Command,
    CommandContext,
    Compute,
    ComputeCached,
    Emit,
    Load,
    Prefetch,
)
from ..dms.items import ItemName
from .dynamic import TaskResult

__all__ = ["DirectRunner", "ShareResult", "derive_field", "execute_share"]


@dataclass
class ShareResult:
    """One slot's payloads plus the worker-side execution record."""

    share_index: int
    #: worker-process wall-clock interval (perf_counter seconds).
    t_start: float
    t_end: float
    pid: int
    #: payload bytes that came back through the slot's result arena;
    #: 0 when the payloads were pickled through the result pipe.
    arena_nbytes: int = 0
    #: the worker's ``cProfile`` stats over this share (``Profile.stats``
    #: after ``create_stats()``: a plain dict, merged by the parent with
    #: ``pstats.Stats.add``); None unless the pool profiles.
    profile_stats: dict | None = None
    #: seconds spent waiting — claim-lock contention inside the worker
    #: plus the parent-added tail idle after the worker's last unit.
    idle_s: float = 0.0
    #: units executed beyond this slot's fair share (work it would
    #: never have seen under the one-share-per-worker split).
    steals: int = 0
    #: per-unit records in execution order; the canonical ``task_index``
    #: on each is the merge key.  Empty for a worker that found the
    #: tickets already drained.
    tasks: list[TaskResult] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.t_end - self.t_start

    @property
    def payloads(self) -> list[Any]:
        """Every unit's payloads, in execution order."""
        return [p for rec in self.tasks for p in rec.payloads]

    @property
    def n_loads(self) -> int:
        return sum(rec.n_loads for rec in self.tasks)

    @property
    def n_computes(self) -> int:
        return sum(rec.n_computes for rec in self.tasks)

    @property
    def n_emits(self) -> int:
        return sum(rec.n_emits for rec in self.tasks)

    @property
    def emitted_nbytes(self) -> int:
        """Modeled result bytes as charged by the command's Emit ops."""
        return sum(rec.emitted_nbytes for rec in self.tasks)


class DirectRunner:
    """Interpret command op streams against a real block provider."""

    def __init__(self, provider: Callable[[ItemName], Any]):
        self.provider = provider
        #: runner-local memo for ComputeCached results; providers only
        #: understand block items, so derived items never hit them.
        self._derived: dict[ItemName, Any] = {}

    def run_share(
        self,
        command: Command,
        ctx: CommandContext,
        assignment: Any,
        worker_index: int,
    ) -> TaskResult:
        """Drive one share's generator to exhaustion; payloads in order.
        The caller numbers the record and times it."""
        run = TaskResult(task_index=-1, payloads=[])
        gen = command.run(ctx, assignment, worker_index)
        result: Any = None
        while True:
            try:
                op = gen.send(result) if result is not None else next(gen)
            except StopIteration:
                break
            result = None
            if isinstance(op, Load):
                result = self.provider(op.item)
                run.n_loads += 1
            elif isinstance(op, Compute):
                run.n_computes += 1
                if op.fn is not None:
                    result = op.fn()
            elif isinstance(op, ComputeCached):
                result = self._derived.get(op.item)
                if result is None and op.fn is not None:
                    result = self._derived[op.item] = op.fn()
                    run.n_computes += 1
            elif isinstance(op, Emit):
                # Payload-free emits (e.g. progressive "approximation"
                # markers) are runtime signals, not results.
                if op.payload is not None:
                    run.payloads.append(op.payload)
                run.n_emits += 1
                run.emitted_nbytes += int(op.nbytes)
            elif isinstance(op, Prefetch):
                pass  # the mapped store is already resident
            else:
                raise TypeError(f"command yielded unknown op {op!r}")
        return run


def derive_field(block: Any, name: str) -> Any:
    """Derived field ``name`` of one block at float64: what every
    executor stores per block before a command that reads the field
    runs.  The one derived field is ``"lambda2"``, λ2 of the block's
    ``velocity`` field."""
    if name != "lambda2":
        raise ValueError(f"unknown derived field {name!r}")
    from ..algorithms.lambda2 import lambda2_field

    return lambda2_field(block, "velocity")


def execute_share(
    runner: DirectRunner,
    command: Command,
    ctx: CommandContext,
    work: Sequence[Any] | Mapping[int, Any],
    claims: Iterator[int],
    slot: int,
    fair_share: int,
) -> ShareResult:
    """Run the work units ``claims`` deals to one slot.

    ``work`` maps canonical index -> work unit (a share of
    :meth:`Command.plan` or a task of :meth:`Command.plan_tasks`; a
    worker sent only its own share gets it as a one-entry mapping).
    ``claims`` yields the canonical indices this slot executes, in
    execution order; schedules differ only in how it is dealt.  It may
    yield nothing — a worker that finds the tickets drained returns an
    empty, legal share.  Payloads stay keyed by canonical index
    (:func:`~repro.parallel.dynamic.payload_lists`), so the merged
    bytes do not depend on which slot claimed what.
    """
    records: list[TaskResult] = []
    t_start = time.perf_counter()
    for index in claims:
        t0 = time.perf_counter()
        record = runner.run_share(command, ctx, work[index], slot)
        record.task_index, record.seconds = index, time.perf_counter() - t0
        records.append(record)
    t_end = time.perf_counter()
    return ShareResult(
        share_index=slot,
        t_start=t_start,
        t_end=t_end,
        pid=os.getpid(),
        steals=max(0, len(records) - fair_share),
        tasks=records,
    )
