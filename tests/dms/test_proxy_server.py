"""Integration tests: data proxies + server on the simulated cluster."""

import pytest

from repro.des import ClusterConfig, Environment, SimCluster
from repro.dms import (
    DataManagerServer,
    DataProxy,
    DMSConfig,
    OBLPrefetcher,
    SequenceOrder,
    SyntheticSource,
    block_item,
)
from repro.synth import build_engine

MB = 1024 * 1024


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(build_engine(base_resolution=4, n_timesteps=3))


def make_world(source, n_workers=2, dms_config=None, prefetcher_for=None):
    env = Environment()
    cluster = SimCluster(env, ClusterConfig(n_workers=n_workers))
    server = DataManagerServer()
    proxies = []
    for node in cluster.worker_nodes:
        pf = prefetcher_for(node) if prefetcher_for else None
        proxies.append(
            DataProxy(
                env,
                cluster,
                node,
                server,
                source,
                config=dms_config or DMSConfig(),
                prefetcher=pf,
            )
        )
    return env, cluster, server, proxies


def run_request(env, proxy, item):
    result = {}

    def body():
        block = yield from proxy.request(item)
        result["block"] = block

    p = env.process(body())
    env.run(until=p)
    return result["block"]


def test_cold_request_loads_and_caches(source):
    env, cluster, server, (proxy, _) = make_world(source)
    item = block_item("engine", 0, 0)
    block = run_request(env, proxy, item)
    assert block.block_id == 0
    assert proxy.stats.misses == 1
    assert proxy.holds(item) == "l1"
    assert env.now > 0  # fileserver read took simulated time
    t_cold = env.now
    # Second request: L1 hit, no extra simulated time.
    block2 = run_request(env, proxy, item)
    assert block2.block_id == 0
    assert proxy.stats.hits_l1 == 1
    assert env.now == t_cold


def test_miss_charges_read_time_hit_does_not(source):
    env, cluster, server, (proxy, _) = make_world(source)
    item = block_item("engine", 0, 1)
    run_request(env, proxy, item)
    node = proxy.node
    assert node.breakdown.read > 0


def test_holder_registry_updates(source):
    env, cluster, server, (p1, p2) = make_world(source)
    item = block_item("engine", 0, 2)
    run_request(env, p1, item)
    ident = p1.resolver.resolve(item)
    assert p1.node.node_id in server.holders(ident)
    assert p2.node.node_id not in server.holders(ident)


def test_node_transfer_used_when_peer_holds_item(source):
    env, cluster, server, (p1, p2) = make_world(source)
    item = block_item("engine", 0, 3)
    run_request(env, p1, item)
    run_request(env, p2, item)
    # p2 should have fetched across the fabric, not the fileserver.
    assert p2.stats.loads_by_strategy.get("node-transfer", 0) == 1
    assert server.selector.decisions["node-transfer"] >= 1


def test_node_transfer_faster_than_fileserver(source):
    env, cluster, server, (p1, p2) = make_world(source)
    item = block_item("engine", 0, 4)
    t0 = env.now
    run_request(env, p1, item)
    t_fileserver = env.now - t0
    t1 = env.now
    run_request(env, p2, item)
    t_fabric = env.now - t1
    assert t_fabric < t_fileserver


def test_l2_spill_and_promotion(source):
    item0 = block_item("engine", 0, 0)
    item1 = block_item("engine", 0, 1)
    nbytes = source.modeled_bytes(item0)
    cfg = DMSConfig(l1_capacity=int(nbytes * 1.5), l2_capacity=nbytes * 10)
    env, cluster, server, (proxy, _) = make_world(source, dms_config=cfg)
    run_request(env, proxy, item0)
    run_request(env, proxy, item1)  # spills item0 to L2
    assert proxy.holds(item0) == "l2"
    run_request(env, proxy, item0)  # promotes from L2: counts as hit
    assert proxy.stats.hits_l2 == 1
    assert proxy.holds(item0) == "l1"


def test_l2_disabled_evicts_for_good(source):
    item0 = block_item("engine", 0, 0)
    item1 = block_item("engine", 0, 1)
    nbytes = source.modeled_bytes(item0)
    cfg = DMSConfig(l1_capacity=int(nbytes * 1.5), l2_capacity=None)
    env, cluster, server, (proxy, _) = make_world(source, dms_config=cfg)
    run_request(env, proxy, item0)
    run_request(env, proxy, item1)
    assert proxy.holds(item0) is None
    ident = proxy.resolver.resolve(item0)
    assert proxy.node.node_id not in server.holders(ident)


def test_prefetch_overlaps_and_turns_miss_into_hit(source):
    level = [block_item("engine", 0, b) for b in range(source.n_blocks)]
    order = SequenceOrder(level)
    env, cluster, server, proxies = make_world(
        source,
        n_workers=1,
        prefetcher_for=lambda node: OBLPrefetcher(order),
    )
    proxy = proxies[0]
    items = level[:4]

    def body():
        for item in items:
            block = yield from proxy.request(item)
            # Simulated compute gives the prefetcher time to finish.
            yield from proxy.node.compute(5e7)

    p = env.process(body())
    env.run(until=p)
    # First access misses; later ones were prefetched during compute.
    assert proxy.stats.misses == 1
    assert proxy.stats.hits_l1 == len(items) - 1
    assert proxy.stats.prefetches_issued >= len(items) - 1
    assert proxy.stats.prefetch_accuracy > 0.5


def test_prefetch_disabled_all_misses(source):
    level = [block_item("engine", 0, b) for b in range(source.n_blocks)]
    order = SequenceOrder(level)
    cfg = DMSConfig(enable_prefetch=False)
    env, cluster, server, proxies = make_world(
        source,
        n_workers=1,
        dms_config=cfg,
        prefetcher_for=lambda node: OBLPrefetcher(order),
    )
    proxy = proxies[0]

    def body():
        for item in level[:4]:
            yield from proxy.request(item)
            yield from proxy.node.compute(5e7)

    p = env.process(body())
    env.run(until=p)
    assert proxy.stats.misses == 4
    assert proxy.stats.prefetches_issued == 0


def test_demand_request_waits_for_inflight_prefetch(source):
    env, cluster, server, (proxy,) = make_world(source, n_workers=1)
    item = block_item("engine", 1, 0)

    def body():
        issued = proxy.prefetch(item)
        assert issued
        # Demand-request immediately: must wait for the in-flight load,
        # not start a second one.
        block = yield from proxy.request(item)
        assert block.time_index == 1

    p = env.process(body())
    env.run(until=p)
    assert proxy.stats.loads_by_strategy["fileserver"] == 1
    assert proxy.stats.prefetches_useful == 1


def test_duplicate_prefetch_dropped(source):
    env, cluster, server, (proxy,) = make_world(source, n_workers=1)
    item = block_item("engine", 1, 1)
    assert proxy.prefetch(item) is True
    assert proxy.prefetch(item) is False
    env.run()
    assert proxy.stats.prefetches_dropped == 1


def test_strategy_query_cost_is_charged(source):
    cfg_with = DMSConfig(strategy_query=True)
    cfg_without = DMSConfig(strategy_query=False)
    item = block_item("engine", 0, 5)

    env1, _, _, (p1,) = make_world(source, n_workers=1, dms_config=cfg_with)
    run_request(env1, p1, item)
    env2, _, _, (p2,) = make_world(source, n_workers=1, dms_config=cfg_without)
    run_request(env2, p2, item)
    assert env1.now > env2.now  # the query round-trip costs time


def test_fileserver_contention_across_proxies(source):
    """Two cold proxies loading different items queue at the fileserver."""
    env, cluster, server, (p1, p2) = make_world(source)

    def body(proxy, bid):
        yield from proxy.request(block_item("engine", 0, bid))

    a = env.process(body(p1, 6))
    b = env.process(body(p2, 7))
    env.run()
    # fileserver_streams defaults to 2, so they go in parallel; with a
    # stream cap of 1 they would serialize. Just assert both loaded.
    assert p1.stats.misses == 1 and p2.stats.misses == 1
    for proxy, bid in ((p1, 6), (p2, 7)):
        assert proxy.stats.loads_by_strategy == {"fileserver": 1}
        assert proxy.stats.bytes_loaded == source.modeled_bytes(block_item("engine", 0, bid))
