"""Compression trade-off model for data transfers.

The paper considered compressing node-to-node transfers in the
cooperative cache but rejected it: "Data compression has been
considered, too, but has been found ineffective due to long runtimes
and low compression rates compared to transmission time" (§4.3).

This module makes that engineering judgement reproducible: given a
codec's throughput and ratio and a link's bandwidth, it answers whether
compressing a transfer wins.  CFD float fields compress poorly (ratios
near 1.2-1.4 for lossless codecs of the era) and 2004-class CPUs
compressed at a few tens of MB/s — hopeless against a shared-memory
fabric, marginal even against fast LANs.

Two decades later the trade flips: zstd-class codecs compress float
blocks at hundreds of MB/s per core, so on anything slower than a local
SAN (WAN hops, a 2004-class fileserver, a degraded link) shipping the
smaller payload wins.  :data:`ZSTD_2020` models that regime; the DMS
transfer path (:meth:`repro.dms.proxy.DataProxy` with
``DMSConfig.compression`` set) makes the compress-vs-raw call per
transfer against the link's *current* effective bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CompressionModel", "GZIP_2004", "LZO_2004", "ZSTD_2020"]


@dataclass(frozen=True)
class CompressionModel:
    """One codec's characteristics on CFD block data."""

    name: str
    #: achieved size ratio (compressed / raw); CFD floats compress badly.
    ratio: float
    #: compression throughput in raw bytes/s.
    compress_rate: float
    #: decompression throughput in raw bytes/s.
    decompress_rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.compress_rate <= 0 or self.decompress_rate <= 0:
            raise ValueError("codec rates must be positive")

    def plain_time(self, nbytes: int, bandwidth: float, latency: float = 0.0) -> float:
        """Wire time for an uncompressed transfer (one message)."""
        return latency + nbytes / bandwidth

    def compressed_time(
        self, nbytes: int, bandwidth: float, latency: float = 0.0
    ) -> float:
        """End-to-end time: compress, ship the smaller payload, decompress.

        Compression and transfer are assumed non-overlapped (store-and-
        forward, as a simple sender-side implementation would behave).
        A compressed transfer costs one extra message round on top of
        the payload: the sender announces the compressed framing
        (codec, raw/compressed lengths) so the receiver can size its
        decompression buffer — so per-message latency is paid twice.
        """
        return (
            nbytes / self.compress_rate
            + 2.0 * latency
            + (nbytes * self.ratio) / bandwidth
            + nbytes / self.decompress_rate
        )

    def worthwhile(self, nbytes: int, bandwidth: float, latency: float = 0.0) -> bool:
        """Does compressing this transfer reduce end-to-end time?"""
        return self.compressed_time(nbytes, bandwidth, latency) < self.plain_time(
            nbytes, bandwidth, latency
        )


#: gzip-class codec on float CFD blocks, 2004-era CPU.
GZIP_2004 = CompressionModel(
    name="gzip", ratio=0.75, compress_rate=15e6, decompress_rate=60e6
)

#: fast-but-weak LZO-class codec.
LZO_2004 = CompressionModel(
    name="lzo", ratio=0.85, compress_rate=80e6, decompress_rate=200e6
)

#: zstd-class codec on float CFD blocks, modern core: ~400 MB/s in,
#: ~1.2 GB/s out at a ~0.65 size ratio.  Break-even ≈ 105 MB/s — above
#: the model's 60 MB/s fileserver, so the 2004 judgement flips for
#: every link slower than a local SAN while the 800 MB/s fabric still
#: prefers raw transfers.
ZSTD_2020 = CompressionModel(
    name="zstd", ratio=0.65, compress_rate=400e6, decompress_rate=1200e6
)
