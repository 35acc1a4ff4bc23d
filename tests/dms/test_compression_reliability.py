"""Tests for the compression model and fileserver-health adaptation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dms import DataManagerServer, FileServerLoad, LoadContext
from repro.dms.compression import GZIP_2004, LZO_2004, ZSTD_2020, CompressionModel

MB = 1024 * 1024


# ---------------------------------------------------------- compression


def test_compression_model_validation():
    with pytest.raises(ValueError):
        CompressionModel("bad", ratio=0.0, compress_rate=1, decompress_rate=1)
    with pytest.raises(ValueError):
        CompressionModel("bad", ratio=1.5, compress_rate=1, decompress_rate=1)
    with pytest.raises(ValueError):
        CompressionModel("bad", ratio=0.5, compress_rate=0, decompress_rate=1)


def test_compression_times():
    codec = CompressionModel("c", ratio=0.5, compress_rate=100.0, decompress_rate=100.0)
    # 100 bytes over a 10 B/s link: plain 10 s; compressed 1 + 5 + 1 = 7 s.
    assert codec.plain_time(100, 10.0) == pytest.approx(10.0)
    assert codec.compressed_time(100, 10.0) == pytest.approx(7.0)
    assert codec.worthwhile(100, 10.0)


def test_compression_loses_on_fast_links():
    # 400 MB/s fabric: both 2004 codecs lose (the paper's conclusion).
    nbytes = 1 * MB
    for codec in (GZIP_2004, LZO_2004):
        assert not codec.worthwhile(nbytes, 400.0 * MB)


def test_compression_wins_on_slow_links():
    assert GZIP_2004.worthwhile(1 * MB, 0.5 * MB)


def test_breakeven_bandwidth_is_consistent():
    # GZIP_2004 breaks even near 3 MB/s, whatever the transfer size.
    codec = GZIP_2004
    assert codec.worthwhile(10 * MB, 1.5 * MB)
    assert not codec.worthwhile(10 * MB, 6.0 * MB)


def test_latency_can_veto_compression():
    """The compressed path pays the per-message latency twice (payload
    plus the framing announcement round), so a chatty enough link can
    veto compression for small transfers even below break-even
    bandwidth — the old model wrongly claimed latency cancels out."""
    codec = GZIP_2004
    bw = 0.5 * MB  # well below GZIP_2004's ~3 MB/s break-even
    assert codec.worthwhile(MB, bw, latency=0.0)
    # A 5 s round trip costs the compressed path 5 extra seconds while
    # saving only ~0.5 s of wire time on a 1 MB transfer: raw wins.
    assert not codec.worthwhile(MB, bw, latency=5.0)
    # On a fast link latency changes nothing: raw already wins.
    assert not codec.worthwhile(MB, 400 * MB, latency=0.0)
    assert not codec.worthwhile(MB, 400 * MB, latency=5.0)


def test_latency_veto_fades_for_large_transfers():
    """The framing round is a fixed cost, so it stops mattering once
    the transfer is large enough to amortize it."""
    codec = GZIP_2004
    bw = 0.5 * MB
    assert not codec.worthwhile(MB, bw, latency=5.0)
    assert codec.worthwhile(10_000 * MB, bw, latency=5.0)


@given(
    nbytes=st.integers(min_value=1, max_value=64 * 1024 * 1024 * 1024),
    bw_scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    codec=st.sampled_from([GZIP_2004, LZO_2004, ZSTD_2020]),
)
@settings(max_examples=200, deadline=None)
def test_worthwhile_matches_breakeven_when_latency_free(nbytes, bw_scale, codec):
    """In the latency-free regime ``worthwhile(nbytes, bw)`` has one
    break-even bandwidth for every transfer size (both sides of the
    comparison scale linearly in ``nbytes``, so size cancels)."""
    bw = bw_scale * MB
    assert codec.worthwhile(nbytes, bw, latency=0.0) == codec.worthwhile(
        MB, bw, latency=0.0
    )


def test_modern_codec_flips_the_2004_conclusion():
    """ZSTD_2020's break-even (~105 MB/s) sits above the model's
    60 MB/s fileserver but below the 800 MB/s fabric: compression wins
    on the fileserver link and still loses on the fabric — the modern
    flip of the paper's 2004 rejection on unchanged link speeds."""
    assert ZSTD_2020.worthwhile(4 * MB, 60e6)
    assert not ZSTD_2020.worthwhile(4 * MB, 800e6)
    # The 2004 codecs reject compression on both links, as the paper did.
    for codec in (GZIP_2004, LZO_2004):
        assert not codec.worthwhile(4 * MB, 60e6)
        assert not codec.worthwhile(4 * MB, 800e6)


# ------------------------------------------------------ fileserver health


def test_degraded_fileserver_shifts_strategy_choice():
    """With a degraded fileserver (the fault injector lowers its
    effective bandwidth) the selector prefers a peer transfer even in
    regimes where the fileserver would otherwise compete."""
    server = DataManagerServer()
    ctx_kwargs = dict(
        key=1,
        nbytes=1024,
        requester=1,
        holders=frozenset({2}),
        fileserver_latency=30e-6,
        fabric_bandwidth=800.0 * MB,
        fabric_latency=30e-6,
    )
    healthy = LoadContext(**ctx_kwargs, fileserver_bandwidth=800.0 * MB)
    degraded = LoadContext(**ctx_kwargs, fileserver_bandwidth=100.0 * MB)
    assert server.choose_strategy(degraded).name == "node-transfer"
    # (healthy choice may be either with equal links; the degraded one
    # must avoid the slow server.)
    assert FileServerLoad().fitness(degraded) < FileServerLoad().fitness(healthy)
