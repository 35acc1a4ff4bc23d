"""Synthetic CFD datasets standing in for the paper's proprietary data."""

from .base import BYTES_PER_POINT, DatasetSpec, SyntheticDataset, fit_modeled_shapes
from .engine import ENGINE_TABLE1, build_engine, engine_block_layout
from .fields import (
    ABCFlowField,
    AnalyticField,
    CounterRotatingFanField,
    SwirlTumbleField,
    annular_lattice,
    cartesian_lattice,
    warp_lattice,
)
from .propfan import PROPFAN_TABLE1, build_propfan, propfan_block_layout

#: the two Table 1 datasets by name, as the CLI, the sentry and the
#: served session build them.
DATASETS = {"engine": build_engine, "propfan": build_propfan}

__all__ = [
    "DATASETS",
    "BYTES_PER_POINT",
    "DatasetSpec",
    "SyntheticDataset",
    "fit_modeled_shapes",
    "ENGINE_TABLE1",
    "build_engine",
    "engine_block_layout",
    "ABCFlowField",
    "AnalyticField",
    "CounterRotatingFanField",
    "SwirlTumbleField",
    "annular_lattice",
    "cartesian_lattice",
    "warp_lattice",
    "PROPFAN_TABLE1",
    "build_propfan",
    "propfan_block_layout",
]
