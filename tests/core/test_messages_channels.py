"""Tests for message types and layer-1 channels."""

import pytest

from repro.core import (
    CommandRequest,
    HEADER_BYTES,
    Mailbox,
    ResultPacket,
    SimMPIChannel,
    SimTCPChannel,
    WorkAssignment,
    WorkerDone,
)
from repro.core.messages import next_request_id
from repro.des import ClusterConfig, Environment, SimCluster


def make_cluster(n_workers=2):
    env = Environment()
    return env, SimCluster(env, ClusterConfig(n_workers=n_workers))


def test_request_ids_increase():
    a, b = next_request_id(), next_request_id()
    assert b == a + 1


def test_message_sizes_positive():
    req = CommandRequest(1, "iso", {"isovalue": 0.5})
    assert req.nbytes >= HEADER_BYTES
    wa = WorkAssignment(1, "iso", {}, 0, 4, assignment=[(0, 1), (0, 2)])
    assert wa.nbytes > HEADER_BYTES
    pkt = ResultPacket(1, 0, 0, payload=None, nbytes=1000)
    assert pkt.wire_bytes == HEADER_BYTES + 1000
    done = WorkerDone(1, 2, partial_nbytes=500)
    assert done.nbytes == HEADER_BYTES + 500


def test_mailbox_fifo():
    env = Environment()
    box = Mailbox(env)
    box.put("a")
    box.put("b")
    got = []

    def consumer():
        got.append((yield box.get()))
        got.append((yield box.get()))

    env.process(consumer())
    env.run()
    assert got == ["a", "b"]
    assert len(box) == 0


def test_tcp_channel_charges_client_link():
    env, cluster = make_cluster()
    box = Mailbox(env)
    chan = SimTCPChannel(cluster)
    node = cluster.worker_nodes[0]
    pkt = ResultPacket(1, 0, 0, payload="geom", nbytes=2 * 1024 * 1024)

    def send():
        yield from chan.send(node, pkt, box)

    env.process(send())
    env.run()
    assert len(box) == 1
    assert node.breakdown.send > 0
    assert env.now >= 2 * 1024 * 1024 / cluster.config.client_bandwidth


def test_mpi_channel_charges_fabric():
    env, cluster = make_cluster()
    box = Mailbox(env)
    chan = SimMPIChannel(cluster)
    node = cluster.worker_nodes[1]
    message = WorkerDone(1, 1, partial_nbytes=1024)

    def send():
        yield from chan.send(node, message, box)

    env.process(send())
    env.run()
    assert len(box) == 1
    # One fabric transfer, charged to the sender's send time.
    assert env.now == cluster.fabric.transfer_time(message.nbytes)
    assert node.breakdown.send == env.now


def test_channel_uses_wire_bytes_over_nbytes():
    """ResultPacket exposes wire_bytes (header included); channels use it."""
    env, cluster = make_cluster()
    box = Mailbox(env)
    chan = SimTCPChannel(cluster)
    pkt = ResultPacket(1, 0, 0, payload=None, nbytes=0)

    def send():
        yield from chan.send(cluster.worker_nodes[0], pkt, box)

    env.process(send())
    env.run()
    expected = cluster.client_link.transfer_time(pkt.wire_bytes)
    assert env.now == pytest.approx(expected)
