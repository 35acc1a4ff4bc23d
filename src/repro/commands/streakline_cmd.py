"""Streakline command (extension; the paper lists streaklines as future
work in §9).

Seeds are dealt to workers like pathline seeds; each seed produces one
dye filament observed at ``t_observe``.  Block demands run through the
DMS with the same block-Markov prefetcher the pathline command uses —
the access pattern is a superposition of pathline patterns, which is
exactly what the shared Markov graph learns fastest.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..algorithms.streaklines import StreaklineTracer
from ..dms.items import block_item
from ..core.commands import Compute, Emit, Load, Param
from .pathline_cmd import TRACER_PARAMS, PathlinesDataManCommand, tracer_knobs

__all__ = ["StreaklinesCommand"]


class StreaklinesCommand(PathlinesDataManCommand):
    """DMS-backed streakline integration."""

    name = "streaklines"
    streaming = False
    use_dms = True
    #: each filament is observed at ``t_observe`` (``None``: the last
    #: time level), made of ``n_particles`` releases.
    parameters = TRACER_PARAMS + (
        Param("t_observe", "time", None, after="t_start"),
        Param("n_particles", "int", 16, low=1),
    )

    def run(self, ctx, assignment: Any, worker_index: int):
        times = list(ctx.times)
        handles = list(ctx.handles_by_time[0])
        tracer = StreaklineTracer(handles, times, **tracer_knobs(ctx))
        sample_cost = ctx.costs.pathline_sample
        for seed in assignment:
            gen = tracer.trace(
                seed, ctx.params["t_start"], ctx.params["t_observe"],
                ctx.params["n_particles"],
            )
            charged = tracer.tracer.samples
            try:
                request = next(gen)
                while True:
                    pending = tracer.tracer.samples - charged
                    if pending:
                        yield Compute(pending * sample_cost)
                        charged = tracer.tracer.samples
                    block = yield Load(
                        block_item(
                            ctx.dataset,
                            ctx.time_offset + request.time_index,
                            request.block_id,
                        )
                    )
                    request = gen.send(block)
            except StopIteration as stop:
                streak = stop.value
            pending = tracer.tracer.samples - charged
            if pending:
                yield Compute(pending * sample_cost)
            yield Emit(streak, nbytes=int(streak.points.nbytes) + 64)
