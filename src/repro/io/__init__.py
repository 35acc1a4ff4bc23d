"""Binary block format and on-disk dataset stores."""

from .format import (
    FormatError,
    block_from_buffer,
    block_from_bytes,
    block_nbytes,
    block_to_bytes,
    read_block,
    write_block,
)
from .dataset_io import DatasetStore, block_filename, write_dataset
from .geometry_io import (
    geometry_from_bytes,
    geometry_to_bytes,
    load_geometry,
    read_geometry,
    save_geometry,
    write_geometry,
)

__all__ = [
    "FormatError",
    "block_from_buffer",
    "block_from_bytes",
    "block_nbytes",
    "block_to_bytes",
    "read_block",
    "write_block",
    "DatasetStore",
    "block_filename",
    "write_dataset",
    "geometry_from_bytes",
    "geometry_to_bytes",
    "load_geometry",
    "read_geometry",
    "save_geometry",
    "write_geometry",
]
