"""The simulated HPC cluster Viracocha runs on.

This stands in for the paper's testbed (a SUN Fire 6800 SMP node with 24
UltraSPARC III CPUs and a network fileserver, plus a PC workstation as
the visualization client).  The model has exactly the pieces whose
interaction the paper measures:

* one CPU per worker (:class:`SimNode`), charging compute time as
  ``cost / flops``;
* a shared, serialized **fileserver** link — I/O contention grows with
  the number of workers reading at once;
* optional node-local **disks** (the DMS secondary cache tier);
* a shared message-passing **fabric** for worker↔worker and
  worker↔scheduler traffic (cheap: shared-memory MPI);
* a single serialized **client link** (TCP/IP to the visualization
  host) — the contention point that makes streaming overhead visible.

Every node keeps a compute/read/send time breakdown, which is what
Figure 15 of the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from .kernel import Environment, Event
from .network import Link
from .resources import Resource

__all__ = ["ClusterConfig", "SimNode", "SimCluster"]

MB = 1024 * 1024


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware parameters of the simulated testbed.

    Defaults approximate the paper's setup at the granularity the model
    needs; :mod:`repro.bench.calibration` documents how they were chosen.
    """

    n_workers: int = 4
    #: abstract work units per second per CPU (calibrated, see bench).
    cpu_rate: float = 1.0e8
    #: shared network fileserver (all cold reads go through it).
    fileserver_bandwidth: float = 60.0 * MB
    fileserver_latency: float = 5e-3
    #: how many reads the fileserver can serve concurrently at full rate.
    fileserver_streams: int = 2
    #: node-local scratch disk (secondary cache tier).
    local_disk_bandwidth: float = 40.0 * MB
    local_disk_latency: float = 8e-3
    #: shared-memory MPI fabric between cluster processes.
    fabric_bandwidth: float = 800.0 * MB
    fabric_latency: float = 30e-6
    fabric_streams: int = 8
    #: TCP/IP connection to the visualization client.
    client_bandwidth: float = 10.0 * MB
    client_latency: float = 2e-3

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.cpu_rate <= 0:
            raise ValueError(f"cpu_rate must be positive, got {self.cpu_rate}")


@dataclass
class NodeBreakdown:
    """Per-node time-in-component accounting (paper Fig. 15)."""

    compute: float = 0.0
    read: float = 0.0
    send: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.read + self.send + self.other

    def add(self, other: "NodeBreakdown") -> None:
        self.compute += other.compute
        self.read += other.read
        self.send += other.send
        self.other += other.other


class SimNode:
    """One cluster process slot: a CPU plus a local scratch disk."""

    def __init__(self, env: Environment, node_id: int, config: ClusterConfig):
        self.env = env
        self.node_id = node_id
        self.config = config
        self.cpu = Resource(env, capacity=1)
        self.local_disk = Link(
            env,
            bandwidth=config.local_disk_bandwidth,
            latency=config.local_disk_latency,
            name=f"disk{node_id}",
        )
        self.breakdown = NodeBreakdown()

    def compute(self, cost: float) -> Generator[Event, None, None]:
        """Process body: occupy this node's CPU for ``cost`` work units."""
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        with self.cpu.request() as req:
            yield req
            duration = cost / self.config.cpu_rate
            yield self.env.timeout(duration)
            self.breakdown.compute += duration

    def read_local(self, nbytes: int) -> Generator[Event, None, None]:
        """Process body: read ``nbytes`` from the node-local disk."""
        t0 = self.env.now
        yield from self.local_disk.transfer(nbytes)
        self.breakdown.read += self.env.now - t0

    def write_local(self, nbytes: int) -> Generator[Event, None, None]:
        """Process body: write ``nbytes`` to the node-local disk."""
        t0 = self.env.now
        yield from self.local_disk.transfer(nbytes)
        self.breakdown.other += self.env.now - t0


class SimCluster:
    """Wires nodes, fileserver, fabric and client link together."""

    def __init__(self, env: Environment, config: ClusterConfig):
        self.env = env
        self.config = config
        # Node 0 hosts the scheduler; nodes 1..n host workers.
        self.nodes = [SimNode(env, i, config) for i in range(config.n_workers + 1)]
        self.fileserver = Link(
            env,
            bandwidth=config.fileserver_bandwidth,
            latency=config.fileserver_latency,
            name="fileserver",
            streams=config.fileserver_streams,
        )
        self.fabric = Link(
            env,
            bandwidth=config.fabric_bandwidth,
            latency=config.fabric_latency,
            name="fabric",
            streams=config.fabric_streams,
        )
        self.client_link = Link(
            env,
            bandwidth=config.client_bandwidth,
            latency=config.client_latency,
            name="client",
        )

    @property
    def scheduler_node(self) -> SimNode:
        return self.nodes[0]

    @property
    def worker_nodes(self) -> list[SimNode]:
        return self.nodes[1:]

    def links(self) -> dict[str, Link]:
        """Every link by name: shared media plus per-node scratch disks.

        The lookup table :mod:`repro.faults` uses to target degradation
        and loss episodes ("fileserver", "fabric", "client", "disk<N>").
        """
        table = {
            "fileserver": self.fileserver,
            "fabric": self.fabric,
            "client": self.client_link,
        }
        for node in self.nodes:
            table[node.local_disk.name] = node.local_disk
        return table

    def link(self, name: str) -> Link:
        """Look up one link by its :meth:`links` name."""
        try:
            return self.links()[name]
        except KeyError:
            raise KeyError(
                f"unknown link {name!r}; known: {sorted(self.links())}"
            ) from None

    def read_fileserver(
        self, node: SimNode, nbytes: int, priority: int = 0, token=None
    ) -> Generator[Event, None, None]:
        """Process body: ``node`` reads ``nbytes`` from the fileserver.

        ``priority > 0`` marks background (prefetch) reads that yield to
        queued demand reads; ``token`` allows later escalation.
        """
        t0 = self.env.now
        yield from self.fileserver.transfer(nbytes, priority=priority, token=token)
        node.breakdown.read += self.env.now - t0

    def fabric_transfer(
        self, node: SimNode, nbytes: int, account: str = "other"
    ) -> Generator[Event, None, None]:
        """Process body: intra-cluster message of ``nbytes`` from ``node``."""
        t0 = self.env.now
        yield from self.fabric.transfer(nbytes)
        elapsed = self.env.now - t0
        if account == "read":
            node.breakdown.read += elapsed
        elif account == "send":
            node.breakdown.send += elapsed
        else:
            node.breakdown.other += elapsed

    def send_to_client(
        self, node: SimNode, nbytes: int
    ) -> Generator[Event, None, None]:
        """Process body: ``node`` sends ``nbytes`` to the viz client."""
        t0 = self.env.now
        yield from self.client_link.transfer(nbytes)
        node.breakdown.send += self.env.now - t0
