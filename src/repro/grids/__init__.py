"""Curvilinear multi-block structured grids (the VTK-substrate stand-in)."""

from .block import BlockHandle, StructuredBlock
from .geometry import cell_centers, cell_volumes, velocity_gradient_tensor
from .interpolate import CellLocator
from .multiblock import MultiBlockDataset, TimeSeries
from .topology import BlockTopology, FaceMatch, find_matched_faces
from .bsp import BSPNode, BSPTree
from .multires import MultiResPyramid, coarsen_block
from .summary import BlockSummary, DatasetSummary, summarize_block, summarize_dataset

__all__ = [
    "BlockHandle",
    "StructuredBlock",
    "cell_centers",
    "cell_volumes",
    "velocity_gradient_tensor",
    "CellLocator",
    "MultiBlockDataset",
    "TimeSeries",
    "BlockTopology",
    "FaceMatch",
    "find_matched_faces",
    "BSPNode",
    "BSPTree",
    "MultiResPyramid",
    "coarsen_block",
    "BlockSummary",
    "DatasetSummary",
    "summarize_block",
    "summarize_dataset",
]
