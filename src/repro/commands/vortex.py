"""The three λ2 vortex commands of the evaluation (§6.3, §7.2).

* ``SimpleVortexCommand``   — no data management.
* ``VortexDataManCommand``  — DMS + OBL prefetching, batch extraction
  (compute the full λ2 field of a block, then triangulate).
* ``StreamedVortexCommand`` — "works on the original data set but
  avoids computing the complete λ2 scalar field first": slab-wise λ2
  with active-cell batches streamed as soon as a user-specified number
  accumulates.

``threshold`` is the λ2 iso level, default 0.0: "in practice a value
about zero is used".
"""

from __future__ import annotations

from typing import Any

from ..algorithms.lambda2 import (
    extract_block_isosurface,
    iter_vortex_batches,
    lambda2_field,
)
from ..algorithms.isosurface import active_cell_indices
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
from ..grids.block import StructuredBlock

__all__ = ["SimpleVortexCommand", "VortexDataManCommand", "StreamedVortexCommand"]

#: what every λ2 command takes.
VORTEX_PARAMS = (
    Param("threshold", "float", 0.0),
    Param("velocity", "field", "velocity", components=3),
)


class VortexDataManCommand(Command):
    """Batch λ2 extraction through the DMS."""

    name = "vortex-dataman"
    streaming = False
    use_dms = True
    prefetcher = "obl"
    parameters = VORTEX_PARAMS

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        return plan_block_assignments(ctx, group_size)

    def plan_tasks(self, ctx: CommandContext) -> list[Any]:
        return plan_block_tasks(ctx)

    def item_sequence_for(self, ctx: CommandContext, assignment: Any):
        return [block_item(ctx.dataset, t, bid) for t, bid in assignment]

    def derived_field(self, ctx: CommandContext) -> str | None:
        # A stored "lambda2" is λ2 of "velocity" (what the executors
        # derive); λ2 of any other field is computed inline.
        if ctx.params["velocity"] == "velocity":
            return "lambda2"
        return None

    def cull_on(self, ctx: CommandContext) -> tuple[str, float] | None:
        # Executors over a shared store derive the field before
        # dealing, so its range table is there to cull by.
        name = self.derived_field(ctx)
        return None if name is None else (name, ctx.params["threshold"])

    def run(self, ctx: CommandContext, assignment: Any, worker_index: int):
        threshold = ctx.params["threshold"]
        velocity = ctx.params["velocity"]
        stored = self.derived_field(ctx) is not None
        for t, bid in assignment:
            block = yield Load(block_item(ctx.dataset, t, bid))
            handle = ctx.handle(t, bid)

            def work(b: StructuredBlock = block):
                # A stored "lambda2" field (derived once per block into
                # the shared-memory store, or persisted beside the
                # dataset) short-circuits the expensive eigenvalue pass.
                if stored and b.has_field("lambda2"):
                    lam = b.field("lambda2")
                else:
                    lam = lambda2_field(b, velocity)
                scratch = StructuredBlock(
                    b.coords, {"lambda2": lam}, block_id=b.block_id,
                    time_index=b.time_index,
                )
                active = active_cell_indices(scratch, "lambda2", threshold)
                mesh = extract_block_isosurface(
                    scratch, "lambda2", threshold, cell_indices=active
                )
                return mesh, len(active) / max(b.n_cells, 1)

            mesh, fraction = yield Compute(
                ctx.costs.lambda2_block_cost(handle, 0.05), work
            )
            if not mesh.is_empty():
                yield Emit(mesh, ctx.costs.result_bytes(mesh.nbytes, handle))


class SimpleVortexCommand(VortexDataManCommand):
    """The no-DMS baseline."""

    name = "vortex-simple"
    use_dms = False
    prefetcher = "none"


class StreamedVortexCommand(Command):
    """Slab-wise streamed λ2 extraction."""

    name = "vortex-streamed"
    streaming = True
    use_dms = True
    prefetcher = "obl"
    parameters = VORTEX_PARAMS + (Param("batch_cells", "int", 256, low=1),)

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        return plan_block_assignments(ctx, group_size)

    def plan_tasks(self, ctx: CommandContext) -> list[Any]:
        return plan_block_tasks(ctx)

    def item_sequence_for(self, ctx: CommandContext, assignment: Any):
        return [block_item(ctx.dataset, t, bid) for t, bid in assignment]

    def run(self, ctx: CommandContext, assignment: Any, worker_index: int):
        threshold = ctx.params["threshold"]
        velocity = ctx.params["velocity"]
        batch_cells = ctx.params["batch_cells"]
        for t, bid in assignment:
            block = yield Load(block_item(ctx.dataset, t, bid))
            handle = ctx.handle(t, bid)
            per_cell = (
                ctx.costs.lambda2_per_cell
                * ctx.costs.streaming_compute_factor
                * handle.scale_factor
            )
            batches = iter_vortex_batches(
                block, threshold=threshold, velocity=velocity,
                batch_cells=batch_cells,
            )
            while True:
                # Pull the next batch (real work), then charge its cost
                # based on how many cells it actually covered.
                result = yield Compute(0.0, lambda it=batches: next(it, None))
                if result is None:
                    break
                mesh, cells_processed = result
                cost = cells_processed * per_cell
                if not mesh.is_empty():
                    # Triangle counts grow like area: 2/3 power of the
                    # modeled-to-actual cell ratio.
                    cost += (
                        ctx.costs.iso_triangulate_per_cell
                        * mesh.n_triangles
                        * handle.scale_factor ** (2.0 / 3.0)
                        * 0.1
                    )
                yield Compute(cost)
                if not mesh.is_empty():
                    yield Emit(mesh, ctx.costs.result_bytes(mesh.nbytes, handle))
