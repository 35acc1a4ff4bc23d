"""The three isosurface commands of the evaluation (§6.3, §7.1).

* ``SimpleIsoCommand``  — no data management: every block read hits the
  fileserver (the paper's SimpleIso baseline).
* ``IsoDataManCommand`` — DMS-enabled batch extraction with OBL system
  prefetching (IsoDataMan).
* ``ViewerIsoCommand``  — the view-dependent *streaming* version:
  blocks sorted front-to-back, per-block BSP traversal, triangle
  batches transmitted as soon as they are complete (ViewerIso).

Each command's ``parameters`` declare what it takes (``python -m repro
commands`` lists them).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..algorithms.isosurface import active_cell_indices, extract_block_isosurface
from ..algorithms.view_dep_iso import iter_view_dependent_batches
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

__all__ = ["SimpleIsoCommand", "IsoDataManCommand", "ViewerIsoCommand"]

#: what every isosurface command takes.
ISO_PARAMS = (
    Param("isovalue", "float"),
    Param("scalar", "field", "pressure", components=1),
)


class IsoDataManCommand(Command):
    """Batch isosurface extraction through the DMS."""

    name = "iso-dataman"
    streaming = False
    use_dms = True
    prefetcher = "obl"
    parameters = ISO_PARAMS

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        return plan_block_assignments(ctx, group_size)

    def plan_tasks(self, ctx: CommandContext) -> list[Any]:
        return plan_block_tasks(ctx)

    def item_sequence_for(self, ctx: CommandContext, assignment: Any):
        return [block_item(ctx.dataset, t, bid) for t, bid in assignment]

    def cull_on(self, ctx: CommandContext) -> tuple[str, float]:
        return ctx.params["scalar"], ctx.params["isovalue"]

    def run(self, ctx: CommandContext, assignment: Any, worker_index: int):
        isovalue = ctx.params["isovalue"]
        scalar = ctx.params["scalar"]
        for t, bid in assignment:
            block = yield Load(block_item(ctx.dataset, t, bid))
            handle = ctx.handle(t, bid)
            active = active_cell_indices(block, scalar, isovalue)
            fraction = len(active) / max(block.n_cells, 1)
            mesh = yield Compute(
                ctx.costs.iso_block_cost(handle, fraction),
                lambda b=block, a=active: extract_block_isosurface(
                    b, scalar, isovalue, cell_indices=a
                ),
            )
            if not mesh.is_empty():
                yield Emit(mesh, ctx.costs.result_bytes(mesh.nbytes, handle))


class SimpleIsoCommand(IsoDataManCommand):
    """The no-DMS baseline: forced fileserver read for every block."""

    name = "iso-simple"
    use_dms = False
    prefetcher = "none"


class ViewerIsoCommand(Command):
    """View-dependent streamed isosurface extraction."""

    name = "iso-viewer"
    streaming = True
    use_dms = True
    prefetcher = "obl"
    parameters = ISO_PARAMS + (
        Param("viewpoint", "point", (0.0, 0.0, 0.0)),
        Param("max_triangles", "int", 2000, low=1),
    )

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        viewpoint = np.asarray(ctx.params["viewpoint"])
        work: list[tuple[int, int]] = []
        for t in ctx.time_indices:
            handles = ctx.handles_by_time[t - ctx.time_offset]
            # Step 1: sort this level's blocks front to back (§6.3).
            ordered = sorted(
                handles, key=lambda h: float(np.sum((h.center() - viewpoint) ** 2))
            )
            work.extend((t, h.block_id) for h in ordered)
        return split_round_robin(work, group_size)

    def plan_tasks(self, ctx: CommandContext) -> list[Any]:
        # Canonical task order is the front-to-back view order the
        # single-worker plan visits, one block per task.
        return [[pair] for pair in self.plan(ctx, 1)[0]]

    def item_sequence_for(self, ctx: CommandContext, assignment: Any):
        return [block_item(ctx.dataset, t, bid) for t, bid in assignment]

    def cull_on(self, ctx: CommandContext) -> tuple[str, float]:
        return ctx.params["scalar"], ctx.params["isovalue"]

    def run(self, ctx: CommandContext, assignment: Any, worker_index: int):
        isovalue = ctx.params["isovalue"]
        scalar = ctx.params["scalar"]
        viewpoint = np.asarray(ctx.params["viewpoint"], dtype=float)
        max_triangles = ctx.params["max_triangles"]
        for t, bid in assignment:
            block = yield Load(block_item(ctx.dataset, t, bid))
            handle = ctx.handle(t, bid)
            active = active_cell_indices(block, scalar, isovalue)
            fraction = len(active) / max(block.n_cells, 1)
            # BSP construction + view-dependent traversal ("the tree
            # construction could be done offline [...] but the
            # computations should be as similar as possible in order to
            # evaluate the 'true cost' of streaming").
            fragments = yield Compute(
                handle.modeled_cells
                * (ctx.costs.bsp_per_cell + ctx.costs.iso_scan_per_cell),
                lambda b=block: list(
                    iter_view_dependent_batches(
                        b, scalar, isovalue, viewpoint, max_triangles=max_triangles
                    )
                ),
            )
            if not fragments:
                continue
            # Triangulation cost, charged per streamed batch.
            tri_total = ctx.costs.iso_triangulate_per_cell * handle.modeled_cells * fraction
            per_fragment = tri_total / len(fragments)
            for fragment in fragments:
                yield Compute(per_fragment)
                yield Emit(fragment, ctx.costs.result_bytes(fragment.nbytes, handle))
