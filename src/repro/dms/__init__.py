"""The Viracocha Data Management System (paper §4)."""

from .items import ItemName, NameResolver, NameService, block_item
from .policies import FBRPolicy, LFUPolicy, LRUPolicy, make_policy
from .cache import CacheStats, CacheTier, TwoTierCache
from .prefetch import (
    BlockMarkovPrefetcher,
    MarkovOBLPrefetcher,
    MarkovPrefetcher,
    NoPrefetcher,
    OBLPrefetcher,
    PrefetchOnMissPrefetcher,
    Prefetcher,
    SequenceOrder,
    make_prefetcher,
)
from .compression import CompressionModel, GZIP_2004, LZO_2004, ZSTD_2020
from .loading import (
    AdaptiveSelector,
    CollectiveLoad,
    FileServerLoad,
    LoadContext,
    LoadingStrategy,
    LocalDiskLoad,
    NodeTransferLoad,
)
from .stats import DMSStatistics
from .server import DataManagerServer, InflightLoad
from .source import BlockSource, SyntheticSource
from .proxy import DataProxy, DMSConfig

__all__ = [
    "ItemName",
    "NameResolver",
    "NameService",
    "block_item",
    "FBRPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "make_policy",
    "CacheStats",
    "CacheTier",
    "TwoTierCache",
    "BlockMarkovPrefetcher",
    "MarkovOBLPrefetcher",
    "MarkovPrefetcher",
    "NoPrefetcher",
    "OBLPrefetcher",
    "PrefetchOnMissPrefetcher",
    "Prefetcher",
    "SequenceOrder",
    "make_prefetcher",
    "AdaptiveSelector",
    "CollectiveLoad",
    "CompressionModel",
    "GZIP_2004",
    "LZO_2004",
    "ZSTD_2020",
    "FileServerLoad",
    "LoadContext",
    "LoadingStrategy",
    "LocalDiskLoad",
    "NodeTransferLoad",
    "DMSStatistics",
    "DataManagerServer",
    "InflightLoad",
    "BlockSource",
    "SyntheticSource",
    "DataProxy",
    "DMSConfig",
]
