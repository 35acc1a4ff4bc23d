"""Single-flight dedup: per-proxy in-flight waits and the cluster-wide
flight table (``DMSConfig.cluster_dedup``)."""

import pytest

from repro.des import ClusterConfig, Environment, SimCluster
from repro.dms import (
    DataManagerServer,
    DataProxy,
    DMSConfig,
    SyntheticSource,
    block_item,
)
from repro.faults import chaos_session
from repro.faults.chaos import trace_fingerprint
from repro.synth import build_engine

MB = 1024 * 1024


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(build_engine(base_resolution=4, n_timesteps=3))


def make_world(source, n_workers=2, dms_config=None):
    env = Environment()
    cluster = SimCluster(env, ClusterConfig(n_workers=n_workers))
    server = DataManagerServer()
    proxies = [
        DataProxy(
            env, cluster, node, server, source,
            config=dms_config or DMSConfig(),
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


# ------------------------------------------- per-proxy single flight


def test_concurrent_demand_requests_share_one_load(source):
    """Two simultaneous demand requests on one proxy issue exactly one
    physical load; the second waits on the first's in-flight event."""
    env, cluster, server, (proxy, _) = make_world(source)
    item = block_item("engine", 0, 0)
    blocks = []

    def body():
        block = yield from proxy.request(item)
        blocks.append(block)

    env.process(body())
    env.process(body())
    env.run()
    assert len(blocks) == 2
    assert blocks[0] is blocks[1]
    assert proxy.stats.loads_by_strategy == {"fileserver": 1}
    assert proxy.stats.bytes_loaded == source.modeled_bytes(item)
    assert proxy.stats.dedup_follows == 0


def test_demand_burst_on_inflight_prefetch_counts_covered_misses(source):
    """A demand burst landing on an in-flight prefetch attaches to it
    (no second load) and credits the prefetch via record_inflight_hit —
    but only once: later waiters are plain in-flight waits."""
    env, cluster, server, (proxy,) = make_world(source, n_workers=1)
    item = block_item("engine", 1, 0)
    blocks = []

    def body():
        block = yield from proxy.request(item)
        blocks.append(block)

    def kickoff():
        assert proxy.prefetch(item)
        yield env.timeout(0.0)

    env.process(kickoff())
    env.process(body())
    env.process(body())
    env.run()
    assert len(blocks) == 2
    assert sum(proxy.stats.loads_by_strategy.values()) == 1
    assert proxy.stats.prefetches_useful == 1
    assert proxy.stats.misses_covered == 1
    assert proxy.stats.bytes_loaded == source.modeled_bytes(item)


# --------------------------------------------- cluster-wide flights


def test_cluster_stampede_dedupes_to_one_physical_load(source):
    """Four nodes cold-requesting the same item concurrently: one
    winner performs the physical load, three followers attach and pull
    the block over the fabric from the winner's cache."""
    cfg = DMSConfig(cluster_dedup=True, enable_prefetch=False)
    env, cluster, server, proxies = make_world(source, n_workers=4, dms_config=cfg)
    item = block_item("engine", 0, 0)
    nbytes = source.modeled_bytes(item)
    blocks = []

    def body(proxy):
        block = yield from proxy.request(item)
        blocks.append(block)

    for proxy in proxies:
        env.process(body(proxy))
    env.run()
    assert len(blocks) == 4
    physical = sum(
        n for p in proxies for strategy, n in p.stats.loads_by_strategy.items()
        if strategy != "dedup-follow"
    )
    assert physical == 1
    assert server.dedup_flights == 1
    assert server.dedup_followers == 3
    assert server.dedup_bytes_saved == 3 * nbytes
    assert sum(p.stats.dedup_follows for p in proxies) == 3
    follows = sum(
        p.stats.loads_by_strategy.get("dedup-follow", 0) for p in proxies
    )
    assert follows == 3
    # Every node ends up holding the block (greedy cooperative cache).
    ident = proxies[0].resolver.resolve(item)
    assert server.holders(ident) == frozenset(
        p.node.node_id for p in proxies
    )
    assert server.flight_entry(ident) is None


def test_cluster_dedup_off_stampede_loads_independently(source):
    """The same stampede without cluster_dedup: every node performs its
    own physical load (the per-proxy table only dedupes within a node)."""
    env, cluster, server, proxies = make_world(source, n_workers=4)
    item = block_item("engine", 0, 1)

    def body(proxy):
        yield from proxy.request(item)

    for proxy in proxies:
        env.process(body(proxy))
    env.run()
    assert server.dedup_followers == 0
    assert sum(p.stats.dedup_follows for p in proxies) == 0
    total_loads = sum(
        sum(p.stats.loads_by_strategy.values()) for p in proxies
    )
    assert total_loads == 4


def test_dedup_tracks_cross_tenant_sharing(source):
    """Followers from a different tenant than the winner land in the
    cross-tenant ledger (the fingerprint-safe (default, default) pair
    is what single-tenant runs produce and stays out of metrics)."""
    cfg = DMSConfig(cluster_dedup=True, enable_prefetch=False)
    env, cluster, server, (p1, p2) = make_world(source, dms_config=cfg)
    p1.current_tenant = "alice"
    p2.current_tenant = "bob"
    item = block_item("engine", 0, 2)

    def body(proxy):
        yield from proxy.request(item)

    env.process(body(p1))
    env.process(body(p2))
    env.run()
    assert server.dedup_followers == 1
    assert dict(server.dedup_followers_by_tenant) == {("alice", "bob"): 1}


def test_follower_falls_back_when_winner_leaves_no_holder(source):
    """A flight that closes without registering a holder (winner
    crashed mid-load) sends the follower back through the strategy
    machinery instead of hanging or returning garbage."""
    cfg = DMSConfig(cluster_dedup=True, enable_prefetch=False)
    env, cluster, server, (proxy,) = make_world(source, n_workers=1, dms_config=cfg)
    item = block_item("engine", 0, 3)
    ident = proxy.resolver.resolve(item)
    flight = server.flight_begin(
        ident, node=99, event=env.event(), nbytes=source.modeled_bytes(item)
    )

    def closer():
        yield env.timeout(0.5)
        server.flight_end(flight)  # crash: no holder was registered

    env.process(closer())
    block = run_request(env, proxy, item)
    assert block is not None
    assert proxy.stats.dedup_follows == 1
    # The follower re-contended, won the reopened flight, and did a
    # real physical load — not a dedup-follow fabric pull.
    assert proxy.stats.loads_by_strategy.get("dedup-follow", 0) == 0
    assert sum(proxy.stats.loads_by_strategy.values()) == 1
    assert server.flight_entry(ident) is None


def test_flight_begin_duplicate_raises():
    env = Environment()
    server = DataManagerServer()
    flight = server.flight_begin(1, node=0, event=env.event())
    with pytest.raises(RuntimeError):
        server.flight_begin(1, node=1, event=env.event())
    server.flight_end(flight)
    assert server.flight_entry(1) is None
    server.flight_begin(1, node=1, event=env.event())  # reopen is fine


def test_flight_end_wakes_followers_and_is_idempotent():
    env = Environment()
    server = DataManagerServer()
    flight = server.flight_begin(5, node=0, event=env.event(), nbytes=100)
    server.flight_attach(flight, tenant="t")
    server.flight_end(flight)
    assert flight.event.triggered
    server.flight_end(flight)  # double-close must not double-count
    assert server.dedup_flights == 1
    assert server.dedup_followers == 1
    assert server.dedup_bytes_saved == 100


def test_dedup_metrics_published_only_when_fired(source):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    server = DataManagerServer()
    server.publish_metrics(registry)
    assert "viracocha_dms_dedup_followers_total" not in registry.snapshot()
    env = Environment()
    flight = server.flight_begin(1, node=0, event=env.event(), nbytes=10)
    server.flight_attach(flight, tenant="bob")
    server.flight_end(flight)
    server.publish_metrics(registry)
    snap = registry.snapshot()
    assert "viracocha_dms_dedup_followers_total" in snap
    assert "viracocha_dms_dedup_bytes_saved_total" in snap
    # The cross-tenant ledger appears with its label pair.
    tenant_rows = [
        row for row in snap["viracocha_dms_dedup_followers_total"]
        if row["labels"].get("follower_tenant") == "bob"
    ]
    assert len(tenant_rows) == 1


# ------------------------------------------------ cluster-scale floor


def _load_seconds_at_32_nodes(dms_config) -> float:
    """Summed simulated load seconds of four concurrent iso commands
    (group size 8, four tenants) over shared propfan timesteps."""
    from repro.bench.calibration import paper_cluster, paper_costs
    from repro.core.session import ViracochaSession
    from repro.synth import build_propfan

    session = ViracochaSession(
        build_propfan(base_resolution=4, n_timesteps=2),
        n_workers=32,
        cluster_config=paper_cluster(32),
        costs=paper_costs(),
        dms_config=dms_config,
    )
    session.run_concurrent([
        {
            "command": "iso-dataman",
            "params": {
                "isovalue": -0.3, "scalar": "pressure", "time_range": (0, 2),
            },
            "group_size": 8,
            "tenant": f"tenant-{i}",
        }
        for i in range(4)
    ])
    stats = session.scheduler.aggregate_dms_stats()
    return sum(stats.load_seconds_by_strategy.values())


def test_cluster_dedup_halves_load_seconds_at_32_nodes():
    """Cluster dedup + contention-aware selection at least halve the
    simulated load seconds of a 32-node stampede on shared timesteps
    (measured 2.22x); simulated time makes the floor exact on any host."""
    baseline = _load_seconds_at_32_nodes(DMSConfig())
    dedup = _load_seconds_at_32_nodes(
        DMSConfig(cluster_dedup=True, contention_aware=True)
    )
    assert baseline / dedup >= 2.0


# -------------------------------------------------- fingerprint safety


def test_disabled_features_keep_fingerprints_identical():
    """The new DMSConfig knobs exist but default off: a session with
    them explicitly disabled fingerprints identically to stock."""
    params = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}
    stock = chaos_session().run("iso-dataman", params=dict(params))
    explicit = chaos_session(
        dms_config=DMSConfig(
            cluster_dedup=False, compression=None, contention_aware=False
        )
    ).run("iso-dataman", params=dict(params))
    assert trace_fingerprint(explicit) == trace_fingerprint(stock)
