"""Progressive multi-resolution isosurface extraction (§5.3).

"First, one uses the lowest resolution level to extract the so called
base data, which is essentially a very coarse approximation of the
final result.  Then, details are successively added by refining the
underlying data grid and adjusting the approximate result data
accordingly."

The command is *level-major*: every assigned block's coarsest level is
extracted and streamed before any block is refined, so the client holds
a complete (if coarse) approximation after the cheap coarse pass — the
time-to-first-approximation (TTFA) becomes O(coarse pass) instead of
O(full command).  Once a worker's coarse pass is out it streams a
zero-byte ``kind="approximation"`` marker packet; the client's TTFA
clock stops when every worker's marker has arrived.

Three more optimizations ride on the schedule:

* **Cached pyramids** — the per-block :class:`~..grids.multires.`
  ``MultiResPyramid`` is a cacheable derived DMS item
  (:class:`~..core.commands.ComputeCached`), so re-interaction with a
  new isovalue skips re-coarsening entirely.
* **Coarse-to-fine culling** — refinement levels scan only cells whose
  coarse ancestor box straddles the isovalue
  (:meth:`MultiResPyramid.active_cells`); the exact 8-corner filter on
  the survivors keeps the finest level byte-identical to plain ``iso``.
* **Frame-budget refinement** — with ``params["frame_budget"]`` (the
  triangles one frame may add) refinement is reordered by visible
  benefit per triangle and paced in budget-sized rounds; a
  :class:`RefinementControl` token in ``params["control"]`` cancels
  in-flight refinement cooperatively (the coarse pass always
  completes).

Each level's packet carries ``level`` / ``finest`` / ``order`` vertex
attributes so the client can replace-refine and :meth:`merge` can
assemble final-quality geometry from the finest level per block.

``params["traversal"]`` is ``"level-major"`` (the default) or
``"depth-first"`` (each block's full pyramid before the next: the
sentry's TTFA baseline); it is independent of ``schedule``, which
picks the static or dynamic drain like every command's.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..algorithms.isosurface import extract_block_isosurface
from ..dms.items import block_item, pyramid_item
from ..grids.multires import MultiResPyramid, modeled_pyramid_nbytes
from ..viz.mesh import TriangleMesh
from ..core.commands import (
    Command,
    CommandContext,
    Compute,
    ComputeCached,
    Emit,
    Load,
    Param,
    plan_block_assignments,
)
from .iso import ISO_PARAMS

__all__ = ["ProgressiveIsoCommand", "RefinementControl"]


class RefinementControl:
    """Cooperative cancellation token for in-flight refinement.

    The client — or the serving layer, on a viewpoint move or isovalue
    change — calls :meth:`cancel`; the command checks the flag between
    refinement emissions and stops streaming further detail.  The
    coarse pass always completes, so the user keeps the approximation
    they already have.  The token travels inside ``params`` (shallow
    ``dict()`` copies along the scheduler and serve paths preserve the
    reference, so an external ``cancel`` reaches the running command).
    """

    def __init__(self) -> None:
        self.cancelled = False
        self.reason: str | None = None

    def cancel(self, reason: str = "superseded") -> None:
        self.cancelled = True
        self.reason = reason


class ProgressiveIsoCommand(Command):
    """Coarse-to-fine streamed isosurface extraction, level-major."""

    name = "iso-progressive"
    streaming = True
    use_dms = True
    prefetcher = "obl"
    parameters = ISO_PARAMS + (
        Param("traversal", "str", "level-major", choices=("level-major", "depth-first")),
        Param("min_dim", "int", 3, low=2),
        Param("max_levels", "int", 4, low=1),
        #: triangles per refinement round; 0 refines without pacing.
        Param("frame_budget", "float", 0.0, low=0.0),
        Param("control", RefinementControl, None),
    )

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        return plan_block_assignments(ctx, group_size)

    def item_sequence_for(self, ctx: CommandContext, assignment: Any):
        return [block_item(ctx.dataset, t, bid) for t, bid in assignment]

    # ------------------------------------------------------------- run
    def run(self, ctx: CommandContext, assignment: Any, worker_index: int):
        if ctx.params["traversal"] == "depth-first":
            yield from self._run_depth_first(ctx, assignment)
        else:
            yield from self._run_level_major(ctx, assignment)

    def _run_level_major(self, ctx: CommandContext, assignment: Any):
        isovalue = ctx.params["isovalue"]
        scalar = ctx.params["scalar"]
        control = ctx.params["control"]
        frame_budget = ctx.params["frame_budget"]

        # Coarse pass: pyramid + coarsest surface for *every* assigned
        # block before refining any of them.
        blocks: list[dict] = []
        for order, (t, bid) in enumerate(assignment):
            handle = ctx.handle(t, bid)
            pyramid = yield from self._acquire_pyramid(ctx, t, bid, handle)
            state = {"order": order, "handle": handle, "pyramid": pyramid,
                     "triangles": 0, "area": 0.0}
            yield from self._emit_level(ctx, state, 0, scalar, isovalue)
            blocks.append(state)
        # The coarse pass is complete: a zero-byte marker packet stops
        # the client's TTFA clock for this worker.
        yield Emit(None, 0, kind="approximation")

        max_depth = max((len(s["pyramid"]) for s in blocks), default=1)
        for level in range(1, max_depth):
            if control is not None and control.cancelled:
                return
            pending = [s for s in blocks if level < len(s["pyramid"])]
            if frame_budget > 0.0:
                # Refine where a streamed triangle buys the most visible
                # surface: blocks with coarse (large-triangle) coverage
                # first.  Stable sort keeps assignment order on ties.
                pending = sorted(
                    pending,
                    key=lambda s: -(s["area"] / max(s["triangles"], 1)),
                )
            while pending:
                if control is not None and control.cancelled:
                    return
                spent = 0
                next_round = []
                for state in pending:
                    if control is not None and control.cancelled:
                        return
                    if frame_budget > 0.0 and spent >= frame_budget:
                        # Over budget for this frame: defer the rest to
                        # the next round (a later frame).
                        next_round.append(state)
                        continue
                    spent += yield from self._emit_level(
                        ctx, state, level, scalar, isovalue
                    )
                pending = next_round

    def _run_depth_first(self, ctx: CommandContext, assignment: Any):
        """Legacy traversal: each block's full pyramid before the next.

        Kept as the TTFA baseline of the sentry's ``progressive-ttfa``
        cell (:mod:`repro.obs.sentry`): the first *complete*
        approximation only exists once the last block's coarsest level
        is out, which depth-first delays behind every earlier block's
        full refinement.
        """
        isovalue = ctx.params["isovalue"]
        scalar = ctx.params["scalar"]
        control = ctx.params["control"]
        last = len(assignment) - 1
        for order, (t, bid) in enumerate(assignment):
            handle = ctx.handle(t, bid)
            pyramid = yield from self._acquire_pyramid(ctx, t, bid, handle)
            state = {"order": order, "handle": handle, "pyramid": pyramid,
                     "triangles": 0, "area": 0.0}
            for level in range(len(pyramid)):
                if level > 0 and control is not None and control.cancelled:
                    return
                yield from self._emit_level(ctx, state, level, scalar, isovalue)
                if level == 0 and order == last:
                    yield Emit(None, 0, kind="approximation")
        if last < 0:
            yield Emit(None, 0, kind="approximation")

    # --------------------------------------------------------- helpers
    def _acquire_pyramid(self, ctx: CommandContext, t: int, bid: int, handle):
        """Probe the derived cache first; only a miss loads the block.

        The pyramid's finest level aliases the source block, so a cache
        hit makes the full-resolution ``Load`` redundant — interactive
        re-extraction (a new isovalue over resident data) never touches
        the disk tier at all, which is where the TTFA win comes from.
        """
        min_dim = ctx.params["min_dim"]
        max_levels = ctx.params["max_levels"]
        item = pyramid_item(ctx.dataset, t, bid, min_dim, max_levels)
        nbytes = modeled_pyramid_nbytes(
            handle.modeled_shape, min_dim=min_dim, max_levels=max_levels
        )
        pyramid = yield ComputeCached(item=item, cost=0.0, fn=None, nbytes=nbytes)
        if pyramid is None:
            block = yield Load(block_item(ctx.dataset, t, bid))
            pyramid = yield ComputeCached(
                item=item,
                # Pyramid construction touches every point once per
                # level — paid once, then served from the derived cache.
                cost=handle.modeled_points * 2.0,
                fn=lambda b=block: MultiResPyramid(
                    b, min_dim=min_dim, max_levels=max_levels
                ),
                nbytes=nbytes,
            )
        return pyramid

    def _emit_level(self, ctx, state, level, scalar, isovalue):
        """Extract and emit one block level; returns triangles emitted."""
        pyramid: MultiResPyramid = state["pyramid"]
        handle = state["handle"]
        if not pyramid.level_straddles(level, scalar, isovalue):
            # The level's scalar range excludes the isovalue: no cull,
            # no Compute event, no packet.
            return 0
        level_block = pyramid.levels[level]
        total_cells = max(sum(pyramid.cells_per_level()), 1)
        share = level_block.n_cells / total_cells
        stats: dict = {}
        active = pyramid.active_cells(level, scalar, isovalue, out_stats=stats)
        if len(active) == 0:
            return 0
        # Scan cost covers only the cells that survived the coarse cull;
        # triangulation covers the exactly-active ones.
        modeled_cells = handle.modeled_cells * share
        scan_fraction = stats["candidates"] / max(level_block.n_cells, 1)
        fraction = len(active) / max(level_block.n_cells, 1)
        cost = modeled_cells * (
            scan_fraction * ctx.costs.iso_scan_per_cell
            + fraction * ctx.costs.iso_triangulate_per_cell
        )
        mesh = yield Compute(
            cost,
            lambda b=level_block, a=active: extract_block_isosurface(
                b, scalar, isovalue, cell_indices=a
            ),
        )
        if mesh.is_empty():
            return 0
        n = mesh.n_vertices
        finest = level == len(pyramid) - 1
        mesh.attributes["level"] = np.full(n, float(level))
        mesh.attributes["finest"] = np.full(n, 1.0 if finest else 0.0)
        mesh.attributes["order"] = np.full(n, float(state["order"]))
        state["triangles"] = mesh.n_triangles
        state["area"] = mesh.area()
        # Coarse levels produce coarse (small) packets.
        nbytes = ctx.costs.result_bytes(mesh.nbytes, handle)
        yield Emit(mesh, int(nbytes * share))
        return mesh.n_triangles

    # ----------------------------------------------------------- merge
    def merge(self, payload_lists):
        """Final-quality geometry: the finest level of every block.

        Selecting the ``finest``-tagged mesh per block (ordered by each
        share's assignment order) reproduces exactly what the plain
        ``iso`` command merges — byte-identical vertices, since the
        culled finest active set equals ``active_cell_indices``.  The
        progressive bookkeeping attributes are dropped from the merged
        mesh so the result matches plain ``iso`` attribute-for-attribute
        as well.
        """
        finest: list[TriangleMesh] = []
        for payloads in payload_lists:
            share = [
                m for m in payloads
                if isinstance(m, TriangleMesh)
                and not m.is_empty()
                and float(m.attributes.get("finest", np.zeros(1))[0]) == 1.0
            ]
            share.sort(key=lambda m: float(m.attributes["order"][0]))
            finest.extend(share)
        merged = TriangleMesh.merge(finest)
        for tag in ("level", "finest", "order"):
            merged.attributes.pop(tag, None)
        return merged
