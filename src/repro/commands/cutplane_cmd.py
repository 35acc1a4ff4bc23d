"""Cut-plane commands (the other §5.1 example, beyond the paper's eval).

``CutplaneCommand`` is the batch DMS variant; ``StreamedCutplaneCommand``
reorganizes the work block by block and streams each block's cut as soon
as it is computed (data-reorganization streaming, §5.1).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..algorithms.cutplane import extract_block_cutplane
from ..dms.items import block_item
from ..core.commands import (
    Command,
    CommandContext,
    Compute,
    Emit,
    Load,
    Param,
    plan_block_assignments,
    plan_block_tasks,
    split_round_robin,
)

__all__ = ["CutplaneCommand", "StreamedCutplaneCommand"]


class CutplaneCommand(Command):
    """Batch cut-plane extraction through the DMS."""

    name = "cutplane"
    streaming = False
    use_dms = True
    prefetcher = "obl"
    #: the plane ``normal · x = offset``, and the scalar fields
    #: interpolated onto the cut.
    parameters = (
        Param("normal", "direction"),
        Param("offset", "float", 0.0),
        Param("attributes", "fields", (), components=1),
    )

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        return plan_block_assignments(ctx, group_size)

    def plan_tasks(self, ctx: CommandContext) -> list[Any]:
        return plan_block_tasks(ctx)

    def item_sequence_for(self, ctx: CommandContext, assignment: Any):
        return [block_item(ctx.dataset, t, bid) for t, bid in assignment]

    def run(self, ctx: CommandContext, assignment: Any, worker_index: int):
        normal = np.asarray(ctx.params["normal"], dtype=np.float64)
        offset = ctx.params["offset"]
        attributes = list(ctx.params["attributes"])
        for t, bid in assignment:
            block = yield Load(block_item(ctx.dataset, t, bid))
            handle = ctx.handle(t, bid)
            mesh = yield Compute(
                ctx.costs.iso_block_cost(handle, 0.05),
                lambda b=block: extract_block_cutplane(b, normal, offset, attributes),
            )
            if not mesh.is_empty():
                yield Emit(mesh, ctx.costs.result_bytes(mesh.nbytes, handle))


class StreamedCutplaneCommand(CutplaneCommand):
    """Block-by-block streaming (data reorganization, §5.1)."""

    name = "cutplane-streamed"
    streaming = True
