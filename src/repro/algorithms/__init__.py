"""Extraction algorithms (the framework's layer-3 computations)."""

from .isosurface import (
    active_cell_indices,
    extract_block_isosurface,
    extract_isosurface,
)
from .view_dep_iso import iter_view_dependent_batches
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
from .streaklines import Streakline, StreaklineTracer, trace_streakline
from .cutplane import (
    extract_block_cutplane,
    extract_cutplane,
    plane_distance_field,
)

__all__ = [
    "active_cell_indices",
    "extract_block_isosurface",
    "extract_isosurface",
    "iter_view_dependent_batches",
    "extract_block_vortices",
    "extract_vortices",
    "iter_vortex_batches",
    "lambda2_field",
    "lambda2_points",
    "BatchPathlineTracer",
    "BlockRequest",
    "Pathline",
    "trace_pathlines",
    "Streakline",
    "StreaklineTracer",
    "trace_streakline",
    "extract_block_cutplane",
    "extract_cutplane",
    "plane_distance_field",
]
