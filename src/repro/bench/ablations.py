"""Ablation studies for the design decisions DESIGN.md calls out.

These go beyond the paper's figures: each isolates one mechanism the
paper *describes or justifies in prose* and measures its effect —
replacement policies (§4.2: "foremost FBR ... less cache misses"),
the secondary disk-cache tier (§4.2), adaptive loading-strategy
selection (§4.3), the streamed batch-size trade-off (§5.2), Markov
prediction width, and the rejected compression idea (§4.3).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..dms.cache import CacheTier
from ..dms.compression import GZIP_2004, LZO_2004
from ..dms.proxy import DMSConfig
from .calibration import MB, paper_cluster, paper_session
from .experiments import (
    ExperimentResult,
    engine_dataset,
    iso_params,
    pathline_params,
)

__all__ = [
    "replacement_policy_study",
    "l2_tier_study",
    "adaptive_loading_study",
    "stream_batch_size_study",
    "markov_width_study",
    "compression_study",
    "ALL_ABLATIONS",
]


# ------------------------------------------------- replacement policies


def interactive_request_stream(
    n_hot: int = 8,
    n_cold: int = 40,
    sweeps: int = 12,
    scan_every: int = 3,
    seed: int = 7,
) -> list[int]:
    """A CFD-exploration-like block request stream.

    Models the paper's "extensive interactive data analysis where raw
    data is frequently reused": repeated parameter sweeps hammer a hot
    working set (the time level under investigation), interleaved with
    occasional sequential scans through other time levels (animation
    preview) that pollute a recency-only cache.  Halfway through, the
    user moves on to a *different* time level (the hot set shifts) —
    the pattern that exposes plain LFU's stale-frequency weakness and
    that FBR's section rule was designed for.
    """
    rng = np.random.default_rng(seed)
    hot_a = list(range(n_hot))
    hot_b = list(range(n_hot + n_cold, n_hot + n_cold + n_hot))
    cold = list(range(n_hot, n_hot + n_cold))
    stream: list[int] = []
    for sweep in range(sweeps):
        hot = hot_a if sweep < sweeps // 2 else hot_b
        order = list(hot)
        rng.shuffle(order)
        stream.extend(order)
        if sweep % scan_every == scan_every - 1:
            stream.extend(cold)  # one full sequential scan
    return stream


def replacement_policy_study(capacity_blocks: int = 12) -> ExperimentResult:
    """Miss counts of LRU / LFU / FBR on the interactive stream."""
    result = ExperimentResult(
        experiment_id="ablation-replacement",
        title=f"Cache replacement on an interactive CFD stream "
        f"(capacity {capacity_blocks} blocks)",
        columns=["policy", "misses", "hits", "miss_rate_pct"],
        notes='Paper §4.2: "strategies based on frequency, foremost FBR, '
        'turned out to produce less cache misses."',
    )
    stream = interactive_request_stream()
    for policy in ("lru", "lfu", "fbr"):
        tier = CacheTier(capacity_blocks, policy)
        for key in stream:
            if tier.get(key) is None:
                tier.put(key, f"block-{key}", 1)
        result.rows.append(
            {
                "policy": policy,
                "misses": tier.stats.misses,
                "hits": tier.stats.hits,
                "miss_rate_pct": 100.0 * tier.stats.miss_rate,
            }
        )
    return result


# ------------------------------------------------------------ L2 tier


def l2_tier_study() -> ExperimentResult:
    """Effect of the optional disk tier when L1 is under pressure."""
    engine = engine_dataset()
    block_bytes = max(engine.spec.modeled_block_bytes)
    params = {**iso_params(engine), "time_range": (0, 3)}
    result = ExperimentResult(
        experiment_id="ablation-l2",
        title="Two-tier cache: warm re-run with an undersized L1 [s]",
        columns=["config", "runtime_s", "l1_hits", "l2_hits", "misses"],
        notes="L1 holds ~one time level of three; the disk tier absorbs "
        "what spills instead of forcing fileserver re-reads (§4.2).",
    )
    for label, l2 in (("L1 only", None), ("L1 + L2 disk tier", 200 * block_bytes)):
        cfg = DMSConfig(l1_capacity=26 * block_bytes, l2_capacity=l2)
        session = paper_session(engine, 1, dms_config=cfg)
        session.warm_cache("iso-dataman", params=params)
        run = session.run("iso-dataman", params=params)
        result.rows.append(
            {
                "config": label,
                "runtime_s": run.total_runtime,
                "l1_hits": session.scheduler.workers[0].proxy.stats.hits_l1,
                "l2_hits": session.scheduler.workers[0].proxy.stats.hits_l2,
                "misses": run.dms["misses"],
            }
        )
    return result


# ------------------------------------------------- adaptive selection


def adaptive_loading_study(n_workers: int = 4) -> ExperimentResult:
    """Adaptive strategy selection vs. pinned direct fileserver loads."""
    engine = engine_dataset()
    params = pathline_params()
    result = ExperimentResult(
        experiment_id="ablation-adaptive",
        title=f"Loading-strategy selection, pathlines, {n_workers} workers, cold [s]",
        columns=["selector", "runtime_s", "node_transfers", "fileserver_loads"],
        notes="Workers share trajectory blocks; the cooperative cache "
        "(node-transfer strategy) avoids duplicate fileserver reads (§4.3).",
    )
    for label, adaptive in (("adaptive", True), ("fileserver only", False)):
        session = paper_session(engine, n_workers, adaptive_loading=adaptive)
        run = session.run("pathlines-dataman", params={**params, "prefetch": "none"})
        decisions = session.scheduler.server.selector.decisions
        result.rows.append(
            {
                "selector": label,
                "runtime_s": run.total_runtime,
                "node_transfers": decisions.get("node-transfer", 0),
                "fileserver_loads": decisions.get("fileserver", 0),
            }
        )
    return result


# ---------------------------------------------------- batch-size sweep


def stream_batch_size_study(
    batch_sizes: Sequence[int] = (50, 200, 1000, 5000),
) -> ExperimentResult:
    """Latency/overhead trade-off of the streamed fragment size (§5.2).

    Small fragments give the fastest first image but "many work nodes
    literally firing data at the visualization system" cost per-packet
    overhead and client-link occupancy; huge fragments converge toward
    the non-streamed behavior — "it is therefore important to find a
    good compromise between low latency and interactivity requirements."
    """
    result = ExperimentResult(
        experiment_id="ablation-batch-size",
        title="ViewerIso: max triangles per fragment vs latency / runtime (Engine, 8 workers)",
        columns=["max_triangles", "latency_s", "total_s", "packets"],
    )
    # A finer actual resolution so blocks span several fragments.
    session = paper_session("engine", 8, resolution=10, timesteps=4)
    params = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}
    session.warm_cache("iso-dataman", params=params)
    for max_triangles in batch_sizes:
        run = session.run(
            "iso-viewer",
            params={
                **params,
                "viewpoint": (0.0, 0.0, -5.0),
                "max_triangles": int(max_triangles),
            },
        )
        result.rows.append(
            {
                "max_triangles": int(max_triangles),
                "latency_s": run.latency,
                "total_s": run.total_runtime,
                "packets": run.n_packets,
            }
        )
    return result


# ------------------------------------------------------- markov width


def markov_width_study(widths: Sequence[int] = (1, 2, 4)) -> ExperimentResult:
    """Prediction width of the Markov prefetcher (cold pathlines, 1 worker)."""
    engine = engine_dataset()
    params = pathline_params()
    result = ExperimentResult(
        experiment_id="ablation-markov-width",
        title="Markov prefetch width, pathlines, 1 worker, cold [s]",
        columns=["width", "runtime_s", "prefetches_issued", "useful", "wasted"],
        notes="Wider prediction buys coverage at the price of wasted "
        "speculative reads on the saturated fileserver.",
    )
    for width in widths:
        session = paper_session(engine, 1)
        run = session.run(
            "pathlines-dataman", params={**params, "prefetch_width": int(width)}
        )
        issued = run.dms["prefetches_issued"]
        useful = run.dms["prefetches_useful"]
        result.rows.append(
            {
                "width": int(width),
                "runtime_s": run.total_runtime,
                "prefetches_issued": issued,
                "useful": useful,
                "wasted": issued - useful,
            }
        )
    return result


# -------------------------------------------------------- compression


def compression_study() -> ExperimentResult:
    """Is compressing transfers worth it?  (Paper §4.3: no.)"""
    engine = engine_dataset()
    nbytes = max(engine.spec.modeled_block_bytes)
    cluster = paper_cluster(1)
    links = {
        "fabric (node-transfer)": cluster.fabric_bandwidth,
        "client TCP": cluster.client_bandwidth,
        "fileserver": cluster.fileserver_bandwidth,
    }
    result = ExperimentResult(
        experiment_id="ablation-compression",
        title=f"Compressing one {nbytes // 1024} KiB block transfer",
        columns=["link", "codec", "plain_ms", "compressed_ms", "worthwhile"],
        notes='Paper §4.3: compression "found ineffective due to long '
        'runtimes and low compression rates compared to transmission time" '
        "— true on the fabric, where the cooperative cache lives.",
    )
    for link_name, bandwidth in links.items():
        for codec in (GZIP_2004, LZO_2004):
            plain = codec.plain_time(nbytes, bandwidth)
            compressed = codec.compressed_time(nbytes, bandwidth)
            result.rows.append(
                {
                    "link": link_name,
                    "codec": codec.name,
                    "plain_ms": 1000 * plain,
                    "compressed_ms": 1000 * compressed,
                    "worthwhile": codec.worthwhile(nbytes, bandwidth),
                }
            )
    return result


ALL_ABLATIONS = {
    "replacement": replacement_policy_study,
    "l2": l2_tier_study,
    "adaptive": adaptive_loading_study,
    "batch-size": stream_batch_size_study,
    "markov-width": markov_width_study,
    "compression": compression_study,
}
