"""Work-stealing support for the multicore executor.

A dynamic :func:`~repro.core.commands.deal` hands out fine-grained
tasks heaviest-first; workers drain them off a shared ticket counter
in whatever order the OS runs them.  Every task's payloads are keyed by
its canonical index and reassembled in canonical order before merging
(:func:`payload_lists`), so the merged output is byte-identical to a
serial single-share run no matter which worker ran what, when.
Per-task wall seconds feed a :class:`CostFeedback` store that lives as
long as the extractor, so repeated runs (interactive parameter sweeps)
start their expensive blocks first from *measured* costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..core.commands import Command, CommandContext

__all__ = [
    "TaskResult",
    "CostFeedback",
    "payload_lists",
]


@dataclass
class TaskResult:
    """One task's payloads plus its execution record."""

    task_index: int  #: canonical index into ``plan_tasks`` order
    payloads: list[Any]
    n_loads: int = 0
    n_computes: int = 0
    n_emits: int = 0
    emitted_nbytes: int = 0
    seconds: float = 0.0  #: measured wall seconds (feeds CostFeedback)


def payload_lists(
    results: Sequence[TaskResult], n_tasks: int, dead: Iterable[int] = ()
) -> list[list[Any]]:
    """Per-task payloads reassembled in canonical task order, the
    ``dead`` tasks (those the prune emptied, never run) empty.

    Feeding this to :meth:`Command.merge` yields the same flat payload
    sequence a serial single-share run produces, hence byte-identical
    merged output.  Raises if any task is missing or duplicated — a
    dynamic run must account for every ticket exactly once.
    """
    ordered: list[list[Any] | None] = [None] * n_tasks
    for index in dead:
        ordered[index] = []
    for res in results:
        if not 0 <= res.task_index < n_tasks:
            raise ValueError(f"task index {res.task_index} out of range {n_tasks}")
        if ordered[res.task_index] is not None:
            raise ValueError(f"task {res.task_index} executed twice")
        ordered[res.task_index] = list(res.payloads)
    missing = [i for i, p in enumerate(ordered) if p is None]
    if missing:
        raise ValueError(f"tasks never executed: {missing}")
    return ordered  # type: ignore[return-value]


@dataclass
class CostFeedback:
    """Measured per-task seconds from prior runs, keyed by plan shape.

    Keys are ``(command_name, n_tasks)`` so a recorded profile only
    seeds runs whose task decomposition matches (same dataset slice and
    granularity); parameter changes that keep the block set — threshold
    sweeps, isovalue scrubbing — reuse it, which is exactly the
    interactive re-extraction loop the paper cares about.
    """

    _measured: dict[tuple[str, int], list[float]] = field(default_factory=dict)

    def record(self, command: str, results: Sequence[TaskResult], n_tasks: int) -> None:
        profile = self._measured.setdefault((command, n_tasks), [0.0] * n_tasks)
        for res in results:
            profile[res.task_index] = res.seconds

    def recorded(self, command: str, n_tasks: int) -> list[float] | None:
        return self._measured.get((command, n_tasks))

    def estimates(
        self,
        command: Command,
        ctx: CommandContext,
        tasks: Sequence[Any],
    ) -> list[float]:
        """Per-task cost estimates: measured when available, model else."""
        profile = self.recorded(command.name, len(tasks))
        if profile is not None and any(s > 0.0 for s in profile):
            return list(profile)
        return [command.task_cost(ctx, task) for task in tasks]
