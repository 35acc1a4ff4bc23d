"""Cost-aware wire compression on the DMS transfer paths.

``DMSConfig.compression`` hands every fileserver/fabric transfer to a
codec for a per-transfer compress-vs-raw call against the link's
current effective bandwidth (see ``DataProxy._wire_transfer``).
"""

import pytest

from repro.des import ClusterConfig, Environment, SimCluster
from repro.dms import (
    GZIP_2004,
    ZSTD_2020,
    DataManagerServer,
    DataProxy,
    DMSConfig,
    SyntheticSource,
    block_item,
)
from repro.obs import NULL_TRACER, SpanTracer
from repro.obs.critical_path import phase_of_segment
from repro.synth import build_engine

MB = 1024 * 1024


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(build_engine(base_resolution=4, n_timesteps=2))


def make_world(source, n_workers=2, dms_config=None, cluster_config=None,
               tracer=NULL_TRACER):
    env = Environment()
    cluster = SimCluster(
        env,
        cluster_config or ClusterConfig(n_workers=n_workers),
    )
    server = DataManagerServer()
    proxies = [
        DataProxy(
            env, cluster, node, server, source,
            config=dms_config or DMSConfig(), tracer=tracer,
        )
        for node in cluster.worker_nodes
    ]
    return env, cluster, server, proxies


def run_request(env, proxy, item):
    result = {}

    def body():
        result["block"] = yield from proxy.request(item)

    p = env.process(body())
    env.run(until=p)
    return result["block"]


def quiet_cluster(n_workers=2):
    """The stock testbed with negligible link latencies, so transfer
    decisions isolate the bandwidth regime from the latency veto (the
    synthetic test blocks are small)."""
    return ClusterConfig(
        n_workers=n_workers, fileserver_latency=1e-7, fabric_latency=1e-7
    )


def test_zstd_compresses_on_fileserver_raw_on_fabric(source):
    """ZSTD_2020's break-even (~105 MB/s) straddles the testbed: the
    60 MB/s fileserver link gets compressed transfers, the 800 MB/s
    fabric (node-transfer of the now-cached block) ships raw."""
    cfg = DMSConfig(compression=ZSTD_2020, enable_prefetch=False)
    env, cluster, server, (p1, p2) = make_world(
        source, dms_config=cfg, cluster_config=quiet_cluster()
    )
    item = block_item("engine", 0, 0)
    run_request(env, p1, item)  # cold: fileserver, compressed
    assert dict(p1.stats.compression_decisions) == {"compress": 1}
    assert p1.stats.compression_bytes_saved > 0
    assert p1.stats.compression_seconds > 0.0
    run_request(env, p2, item)  # warm peer: fabric, raw
    assert p2.stats.loads_by_strategy.get("node-transfer") == 1
    assert dict(p2.stats.compression_decisions) == {"raw": 1}
    assert p2.stats.compression_bytes_saved == 0


def test_2004_codecs_ship_raw_and_cost_nothing(source):
    """GZIP_2004 rejects compression on every testbed link (the paper's
    conclusion), and a raw decision adds zero simulated time: the run
    is clock-identical to one with no codec at all."""
    item = block_item("engine", 0, 1)
    env_raw, _, _, (p_raw, _) = make_world(
        source, dms_config=DMSConfig(enable_prefetch=False),
        cluster_config=quiet_cluster(),
    )
    run_request(env_raw, p_raw, item)
    cfg = DMSConfig(compression=GZIP_2004, enable_prefetch=False)
    env_gz, _, _, (p_gz, _) = make_world(
        source, dms_config=cfg, cluster_config=quiet_cluster()
    )
    run_request(env_gz, p_gz, item)
    assert dict(p_gz.stats.compression_decisions) == {"raw": 1}
    assert p_gz.stats.compression_seconds == 0.0
    assert env_gz.now == env_raw.now


def test_compressed_transfer_beats_raw_on_slow_link(source):
    """On the 60 MB/s fileserver the ZSTD path (codec seconds included)
    finishes sooner than shipping raw bytes — the modern flip the
    per-transfer decision is there to capture."""
    item = block_item("engine", 0, 0)
    env_raw, _, _, (p_raw, _) = make_world(
        source, dms_config=DMSConfig(enable_prefetch=False),
        cluster_config=quiet_cluster(),
    )
    run_request(env_raw, p_raw, item)
    env_z, _, _, (p_z, _) = make_world(
        source, dms_config=DMSConfig(compression=ZSTD_2020, enable_prefetch=False),
        cluster_config=quiet_cluster(),
    )
    run_request(env_z, p_z, item)
    assert dict(p_z.stats.compression_decisions) == {"compress": 1}
    assert env_z.now < env_raw.now


def test_latency_veto_on_chatty_link(source):
    """A WAN-grade round trip makes the compressed path's extra framing
    round cost more than the wire time it saves on a ~29 MB block, so
    the codec that wins at the stock 5 ms latency ships raw here."""
    cfg = DMSConfig(compression=ZSTD_2020, enable_prefetch=False)
    env, cluster, server, (proxy, _) = make_world(
        source, dms_config=cfg,
        cluster_config=ClusterConfig(n_workers=2, fileserver_latency=0.2),
    )
    run_request(env, proxy, block_item("engine", 0, 2))
    assert dict(proxy.stats.compression_decisions) == {"raw": 1}


def test_codec_seconds_feed_decompress_phase(source):
    """Codec work runs inside ``decompress``-kind spans on the loading
    node's CPU, and the critical-path taxonomy charges those spans to
    the ``decompress`` phase."""
    env_holder = {}
    tracer = SpanTracer(clock=lambda: env_holder["env"].now)
    cfg = DMSConfig(compression=ZSTD_2020, enable_prefetch=False)
    env, cluster, server, (proxy, _) = make_world(
        source, dms_config=cfg, cluster_config=quiet_cluster(), tracer=tracer
    )
    env_holder["env"] = env
    compute_before = proxy.node.breakdown.compute
    run_request(env, proxy, block_item("engine", 0, 0))
    assert proxy.node.breakdown.compute > compute_before
    codec_spans = [s for s in tracer.spans if s.kind == "decompress"]
    assert [s.name for s in codec_spans] == ["zstd-compress", "zstd-decompress"]
    for span in codec_spans:
        assert span.t_end is not None and span.t_end > span.t_start
        assert phase_of_segment(span, span.t_start, span.t_end) == "decompress"


def test_compression_decision_sees_link_pressure(source):
    """The compress-vs-raw call divides bandwidth by current stream
    pressure: a congested fabric drops below ZSTD's break-even, so a
    transfer that ships raw on an idle fabric compresses once enough
    concurrent streams saturate it."""
    # strategy_query off so the decision is not itself queued behind
    # the hogs on the single-stream fabric.
    cfg = DMSConfig(
        compression=ZSTD_2020, enable_prefetch=False, strategy_query=False
    )
    cluster_cfg = ClusterConfig(
        n_workers=2, fileserver_latency=1e-7, fabric_latency=1e-7,
        fabric_streams=1,
    )
    env, cluster, server, (p1, p2) = make_world(
        source, dms_config=cfg, cluster_config=cluster_cfg
    )
    item = block_item("engine", 0, 0)
    run_request(env, p1, item)  # p1 now holds the block

    def hog():
        yield from cluster.fabric_transfer(p1.node, 400 * MB, account="other")

    # Eight transfers contending for the fabric's only stream push the
    # pressure term to 8: effective bandwidth 800/9 ~ 89 MB/s, below
    # ZSTD_2020's ~105 MB/s break-even.
    for _ in range(8):
        env.process(hog())
    env.run(until=env.now + 1e-5)  # let the hogs grab/queue the stream
    run_request(env, p2, item)  # node-transfer over the saturated fabric
    assert p2.stats.loads_by_strategy.get("node-transfer") == 1
    assert dict(p2.stats.compression_decisions) == {"compress": 1}
