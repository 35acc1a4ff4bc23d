"""Direct (wall-clock) execution of command shares.

Commands are generators over plain ops (§3's layer split); the DES
worker interprets them under simulated time.  :class:`DirectRunner` is
the other interpreter: it drives the *same* generator against real data
with no simulation at all — ``Load`` pulls the block from a provider,
``Compute`` runs the closure immediately, ``Emit`` collects the payload
in order, ``Prefetch`` is a no-op (the shared-memory store is already
resident).  Because the op stream, the numerics and the emit order are
exactly those of the serial simulated path, results merged in share
order are byte-identical to a serial run by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

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

__all__ = ["DirectRunner", "ShareRun"]


@dataclass
class ShareRun:
    """What one share produced, plus its data-movement counters."""

    worker_index: int
    payloads: list[Any] = field(default_factory=list)
    n_loads: int = 0
    #: blocks the command skipped on their stored scalar range.
    n_culled: int = 0
    n_computes: int = 0
    n_emits: int = 0
    #: modeled result bytes as charged by the command's Emit ops.
    emitted_nbytes: int = 0


class DirectRunner:
    """Interpret command op streams against a real block provider.

    With a :class:`~repro.parallel.pipeline.BlockPipeline` attached,
    each share's upcoming block sequence is scheduled for background
    materialization on entry and every ``Load`` drains the pipeline
    first — the next block's lazy ``<f4`` views upcast to float64 while
    the current block extracts (double-buffered load/compute overlap).
    Bytes are unchanged either way: the pipeline returns the provider's
    own object with its fields pre-touched.
    """

    def __init__(self, provider: Callable[[ItemName], Any], pipeline=None):
        self.provider = provider
        #: optional BlockPipeline for load/compute overlap.
        self.pipeline = pipeline
        #: runner-local memo for ComputeCached results; providers only
        #: understand block items, so derived items never hit them.
        self._derived: dict[ItemName, Any] = {}

    def _fetch(self, item: ItemName) -> Any:
        if self.pipeline is not None:
            return self.pipeline.get(item)
        return self.provider(item)

    def run_share(
        self,
        command: Command,
        ctx: CommandContext,
        assignment: Any,
        worker_index: int,
    ) -> ShareRun:
        """Drive one share's generator to exhaustion; payloads in order."""
        run = ShareRun(worker_index=worker_index)
        culled_before = ctx.n_culled
        if self.pipeline is not None:
            self.pipeline.schedule(command.item_sequence_for(ctx, assignment))
        gen = command.run(ctx, assignment, worker_index)
        result: Any = None
        while True:
            try:
                op = gen.send(result) if result is not None else next(gen)
            except StopIteration:
                break
            result = None
            if isinstance(op, Load):
                result = self._fetch(op.item)
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
                # Shared memory is already resident; with a pipeline the
                # hint still buys the background float64 materialization.
                if self.pipeline is not None:
                    self.pipeline.schedule([op.item])
            else:
                raise TypeError(f"command yielded unknown op {op!r}")
        run.n_culled = ctx.n_culled - culled_before
        return run

    def run_all(
        self,
        command: Command,
        ctx: CommandContext,
        assignments: Sequence[Any],
    ) -> list[ShareRun]:
        """Serial reference execution: every share, in share order."""
        return [
            self.run_share(command, ctx, assignment, i)
            for i, assignment in enumerate(assignments)
        ]
