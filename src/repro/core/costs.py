"""Calibrated cost model for the simulated runtime.

The simulated cluster charges compute time as ``work_units / cpu_rate``
(``cpu_rate`` defaults to 1e8 units/s, so one unit ≈ 10 ns on one
UltraSPARC-class CPU).  Commands compute their work in units of
*modeled* cells — the paper-scale resolution carried by every
:class:`~repro.grids.block.BlockHandle` — so runtimes reflect the
1.12 GB / 19.5 GB datasets even though the actual arrays are small.

Calibration (see EXPERIMENTS.md): the per-cell constants were chosen so
the **one-worker Engine** numbers land near the paper's Figures 6/9/13
(SimpleIso ≈ 35 s, SimpleVortex ≈ 90 s, SimplePathlines ≈ 170 s); every
other point — other worker counts, the Propfan dataset, latencies,
breakdowns — is *predicted* by the model, not fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..grids.block import BlockHandle

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Work-unit constants, all per *modeled* quantity."""

    #: isosurface: per-cell active test + traversal.
    iso_scan_per_cell: float = 30.0
    #: isosurface: per active cell triangulated.
    iso_triangulate_per_cell: float = 400.0
    #: ViewerIso: BSP build + view-dependent traversal per cell.
    bsp_per_cell: float = 25.0
    #: λ2: gradient tensor + eigenvalues per cell.
    lambda2_per_cell: float = 140.0
    #: pathlines: one velocity sample (locate + invert + interpolate).
    pathline_sample: float = 12000.0
    #: merging partial results at the master, per modeled byte.
    merge_per_byte: float = 0.4
    #: fixed per-command setup cost (argument parsing, group formation).
    command_setup: float = 1.0e6
    #: wire bytes per in-memory geometry byte: the client protocol ships
    #: indexed float32 geometry, not float64 triangle soup.
    result_wire_factor: float = 0.2
    #: packet assembly/serialization work per streamed Emit ("streaming
    #: generally introduces a slight overhead", §5).
    stream_packet_overhead: float = 0.0
    #: inefficiency of cell-wise streamed processing relative to the
    #: whole-field batch sweep (§6.3's cell-by-cell λ2 scheme).
    streaming_compute_factor: float = 1.0

    # ------------------------------------------------------ conveniences
    def iso_block_cost(self, handle: BlockHandle, active_fraction: float) -> float:
        """Scan a whole block and triangulate its active cells."""
        cells = handle.modeled_cells
        return cells * self.iso_scan_per_cell + (
            cells * active_fraction * self.iso_triangulate_per_cell
        )

    def lambda2_block_cost(self, handle: BlockHandle, active_fraction: float) -> float:
        cells = handle.modeled_cells
        return cells * self.lambda2_per_cell + (
            cells * active_fraction * self.iso_triangulate_per_cell
        )

    def result_bytes(self, actual_nbytes: int, handle: BlockHandle) -> int:
        """Modeled size of extracted geometry.

        Surfaces scale with resolution like area, i.e. with the 2/3
        power of the cell-count ratio.
        """
        return int(
            actual_nbytes
            * self.result_wire_factor
            * handle.scale_factor ** (2.0 / 3.0)
        )


DEFAULT_COSTS = CostModel()
