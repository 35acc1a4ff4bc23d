"""Extraction algorithms (the framework's layer-3 computations)."""

from .isosurface import (
    active_cell_indices,
    extract_block_isosurface,
    extract_isosurface,
    iter_isosurface_batches,
)
from .view_dep_iso import iter_view_dependent_batches, sort_blocks_front_to_back
from .lambda2 import (
    extract_block_vortices,
    extract_vortices,
    iter_vortex_batches,
    lambda2_field,
    lambda2_points,
)
from .pathlines import (
    BatchPathlineTracer,
    BlockRequest,
    Pathline,
    trace_pathlines,
)
from .streamlines import (
    BatchStreamlineTracer,
    trace_streamlines,
)
from .streaklines import Streakline, StreaklineTracer, trace_streakline
from .contours import contour_lines, cutplane_contours
from .criteria import (
    enstrophy_field,
    extract_q_vortices,
    helicity_field,
    q_criterion_field,
    q_criterion_points,
    vorticity_field,
    vorticity_magnitude_field,
)
from .cutplane import (
    extract_block_cutplane,
    extract_cutplane,
    iter_cutplane_batches,
    plane_distance_field,
)

__all__ = [
    "active_cell_indices",
    "extract_block_isosurface",
    "extract_isosurface",
    "iter_isosurface_batches",
    "iter_view_dependent_batches",
    "sort_blocks_front_to_back",
    "extract_block_vortices",
    "extract_vortices",
    "iter_vortex_batches",
    "lambda2_field",
    "lambda2_points",
    "BatchPathlineTracer",
    "BlockRequest",
    "Pathline",
    "trace_pathlines",
    "BatchStreamlineTracer",
    "trace_streamlines",
    "Streakline",
    "StreaklineTracer",
    "trace_streakline",
    "contour_lines",
    "cutplane_contours",
    "enstrophy_field",
    "extract_q_vortices",
    "helicity_field",
    "q_criterion_field",
    "q_criterion_points",
    "vorticity_field",
    "vorticity_magnitude_field",
    "extract_block_cutplane",
    "extract_cutplane",
    "iter_cutplane_batches",
    "plane_distance_field",
]
