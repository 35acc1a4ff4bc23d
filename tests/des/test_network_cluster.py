"""Unit tests for Link, SimNode and SimCluster."""

import pytest

from repro.des import ClusterConfig, Environment, Link, SimCluster


def make_cluster(n_workers=2, **overrides):
    env = Environment()
    cfg = ClusterConfig(n_workers=n_workers, **overrides)
    return env, SimCluster(env, cfg)


# ---------------------------------------------------------------- Link


def test_link_transfer_time_formula():
    env = Environment()
    link = Link(env, bandwidth=100.0, latency=0.5)
    assert link.transfer_time(200) == pytest.approx(0.5 + 2.0)


def test_link_rejects_bad_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, bandwidth=0)
    with pytest.raises(ValueError):
        Link(env, bandwidth=10, latency=-1)


def test_link_serializes_transfers():
    env = Environment()
    link = Link(env, bandwidth=100.0, latency=0.0)
    done = []

    def xfer(name, nbytes):
        yield from link.transfer(nbytes)
        done.append((env.now, name))

    env.process(xfer("a", 100))  # 1s
    env.process(xfer("b", 100))  # queues behind a
    env.run()
    # b waits out a's whole transfer, then holds the wire for its own.
    assert done == [(1.0, "a"), (2.0, "b")]
    assert env.now == 2 * link.transfer_time(100)


def test_link_multiple_streams_parallel():
    env = Environment()
    link = Link(env, bandwidth=100.0, streams=2)
    done = []

    def xfer(name):
        yield from link.transfer(100)
        done.append((env.now, name))

    for n in ["a", "b", "c"]:
        env.process(xfer(n))
    env.run()
    assert done == [(1.0, "a"), (1.0, "b"), (2.0, "c")]


def test_link_negative_bytes_rejected():
    env = Environment()
    link = Link(env, bandwidth=1.0)

    def bad():
        yield from link.transfer(-5)

    env.process(bad())
    with pytest.raises(ValueError):
        env.run()


def test_zero_byte_transfer_costs_only_latency():
    env = Environment()
    link = Link(env, bandwidth=100.0, latency=0.25)

    def xfer():
        yield from link.transfer(0)

    env.process(xfer())
    env.run()
    assert env.now == pytest.approx(0.25)


# ------------------------------------------------------------- Cluster


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_workers=0)
    with pytest.raises(ValueError):
        ClusterConfig(cpu_rate=0)


def test_cluster_has_scheduler_plus_workers():
    _, cluster = make_cluster(n_workers=3)
    assert len(cluster.nodes) == 4
    assert cluster.scheduler_node is cluster.nodes[0]
    assert len(cluster.worker_nodes) == 3


def test_node_compute_charges_time_and_breakdown():
    env, cluster = make_cluster(n_workers=1, cpu_rate=10.0)
    node = cluster.worker_nodes[0]

    def work():
        yield from node.compute(50.0)

    env.process(work())
    env.run()
    assert env.now == pytest.approx(5.0)
    assert node.breakdown.compute == pytest.approx(5.0)


def test_node_compute_negative_cost_rejected():
    env, cluster = make_cluster(n_workers=1)
    node = cluster.worker_nodes[0]

    def work():
        yield from node.compute(-1.0)

    env.process(work())
    with pytest.raises(ValueError):
        env.run()


def test_cpu_serializes_two_tasks_on_one_node():
    env, cluster = make_cluster(n_workers=1, cpu_rate=1.0)
    node = cluster.worker_nodes[0]
    done = []

    def work(name):
        yield from node.compute(2.0)
        done.append((env.now, name))

    env.process(work("a"))
    env.process(work("b"))
    env.run()
    assert done == [(2.0, "a"), (4.0, "b")]


def test_fileserver_read_accounts_as_read_time():
    env, cluster = make_cluster(n_workers=1)
    node = cluster.worker_nodes[0]

    def rd():
        yield from cluster.read_fileserver(node, 6 * 1024 * 1024)

    env.process(rd())
    env.run()
    assert node.breakdown.read > 0
    assert node.breakdown.compute == 0


def test_fileserver_contention_with_many_readers():
    """With streams=1, k concurrent reads take ~k times one read."""
    env1, c1 = make_cluster(n_workers=1, fileserver_streams=1)

    def rd(cluster, node):
        yield from cluster.read_fileserver(node, 60 * 1024 * 1024)

    env1.process(rd(c1, c1.worker_nodes[0]))
    env1.run()
    t_single = env1.now

    env4, c4 = make_cluster(n_workers=4, fileserver_streams=1)
    for node in c4.worker_nodes:
        env4.process(rd(c4, node))
    env4.run()
    assert env4.now == pytest.approx(4 * t_single, rel=0.05)


def test_client_send_accounts_as_send_time():
    env, cluster = make_cluster(n_workers=1)
    node = cluster.worker_nodes[0]

    def send():
        yield from cluster.send_to_client(node, 1024 * 1024)

    env.process(send())
    env.run()
    assert node.breakdown.send > 0


def test_total_breakdown_sums_workers():
    env, cluster = make_cluster(n_workers=2, cpu_rate=1.0)

    def work(node):
        yield from node.compute(3.0)

    for node in cluster.worker_nodes:
        env.process(work(node))
    env.run()
    total = sum(node.breakdown.compute for node in cluster.worker_nodes)
    assert total == pytest.approx(6.0)


def test_local_disk_read_write():
    env, cluster = make_cluster(n_workers=1)
    node = cluster.worker_nodes[0]

    def io():
        yield from node.read_local(1024)
        yield from node.write_local(1024)

    env.process(io())
    env.run()
    assert node.breakdown.read > 0
    assert node.breakdown.other > 0
