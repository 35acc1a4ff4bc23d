"""The pathline commands of the evaluation (§6.3, §7.3).

Seed points are dealt to workers round-robin; because "every pathline
has different computational efforts and strongly varying block
requirements", this static distribution shows the load imbalance the
paper reports (bad scalability, Fig. 13).

The tracer's block demands drive ``Load`` ops, so with the DMS enabled
the request stream feeds the Markov(+OBL) prefetcher — "making use of
the markov prefetcher, and after a learning phase, the data requests
even of time-dependent particle tracing can be predicted quite well."

Each worker integrates its seed share as ONE particle batch through
:class:`~repro.algorithms.pathlines.BatchPathlineTracer`: the RK45
stages advance all of the share's particles together, and every block
the batch needs is demanded once per super-step (*coalesced* — one
``Load`` per (time level, block) regardless of how many particles sit
in it), which both cuts DMS round trips and keeps the request stream
Markov-learnable.  The batched tracer is the only one.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..algorithms.pathlines import BatchPathlineTracer
from ..dms.items import block_item
from ..core.commands import (
    Command,
    CommandContext,
    Compute,
    Emit,
    Load,
    Param,
    split_round_robin,
)

__all__ = ["SimplePathlinesCommand", "PathlinesDataManCommand"]

#: what every particle tracer takes: seeds, a release time (``None``:
#: the first time level) and the integrator's knobs, over at least the
#: two time levels a step interpolates between.
TRACER_PARAMS = (
    Param("time_range", "time_range", None, low=2),
    Param("seeds", "points"),
    Param("t_start", "time", None),
    Param("rtol", "float", 1e-3, low=0.0),
    Param("max_steps", "int", 400, low=1),
    Param("local_cache_blocks", "int", 8, low=2),
)


def tracer_knobs(ctx: CommandContext) -> dict[str, Any]:
    """The integrator keywords of a tracer command's params."""
    return {k: ctx.params[k] for k in ("rtol", "max_steps", "local_cache_blocks")}


class PathlinesDataManCommand(Command):
    """DMS-backed pathline integration with Markov prefetching."""

    name = "pathlines-dataman"
    streaming = False
    use_dms = True
    prefetcher = "block-markov"
    #: ``t_end`` (``None``: the last time level) ends every path.
    parameters = TRACER_PARAMS + (
        Param("t_end", "time", None, after="t_start"),
    )

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        seeds = np.asarray(ctx.params["seeds"], dtype=np.float64)
        return split_round_robin(list(seeds), group_size)

    def plan_tasks(self, ctx: CommandContext) -> list[Any]:
        # One task per seed, in seed order.  A singleton batch traces
        # byte-identically to the same seed inside a larger batch (the
        # batched tracer's per-particle equivalence pin), so per-seed
        # stealing preserves every path's bytes and the merged order.
        return [[seed] for seed in self.plan(ctx, 1)[0]]

    def task_cost(self, ctx: CommandContext, task: Any) -> float:
        # Seeds have no a-priori cost signal (effort depends on the
        # trajectory); uniform estimates leave ordering to feedback
        # from recorded per-seed timings.
        return 1.0

    def item_sequence_for(self, ctx: CommandContext, assignment: Any):
        # The OBL fallback order: file-storage order, time-major.
        return [
            block_item(ctx.dataset, t, h.block_id)
            for t in ctx.time_indices
            for h in sorted(
                ctx.handles_by_time[t - ctx.time_offset], key=lambda h: h.block_id
            )
        ]

    def merge(self, payload_lists):
        return [p for payloads in payload_lists for p in payloads]

    def run(self, ctx: CommandContext, assignment: Any, worker_index: int):
        if not assignment:
            return
        times = list(ctx.times)
        handles = list(ctx.handles_by_time[0])
        sample_cost = ctx.costs.pathline_sample
        tracer = BatchPathlineTracer(handles, times, **tracer_knobs(ctx))
        gen = tracer.trace_many(
            assignment, ctx.params["t_start"], ctx.params["t_end"]
        )
        charged = tracer.samples
        try:
            request = next(gen)
            while True:
                # Charge the numerics done since the last block demand.
                pending = tracer.samples - charged
                if pending:
                    yield Compute(pending * sample_cost)
                    charged = tracer.samples
                block = yield Load(
                    block_item(
                        ctx.dataset,
                        ctx.time_offset + request.time_index,
                        request.block_id,
                    )
                )
                request = gen.send(block)
        except StopIteration as stop:
            paths = stop.value
        pending = tracer.samples - charged
        if pending:
            yield Compute(pending * sample_cost)
        for path in paths:
            yield Emit(path, nbytes=int(path.points.nbytes + path.times.nbytes))


class SimplePathlinesCommand(PathlinesDataManCommand):
    """The no-DMS baseline: every tracer block demand hits the fileserver."""

    name = "pathlines-simple"
    use_dms = False
    prefetcher = "none"
