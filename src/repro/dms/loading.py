"""Loading strategies and adaptive, fitness-based strategy selection.

"The Viracocha-DMS provides a set of loading strategies.  A centralized
component located at the scheduler node decides on their usage. [...]
This decision is made based on a fitness function that depends on one
or more parameters like bandwidth, reliability, or latency." (§4.3)

Strategies implemented, as in the paper: direct loading from the (hard
disk /) file server, transferring data across computing nodes (the
greedy cooperative cache), and collective I/O.  The selector estimates
each candidate's effective throughput for the request at hand and picks
the fittest; the extra round-trip to ask the server is charged by the
proxy ("The drawback is additional communication for every load
operation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

__all__ = [
    "LoadContext",
    "LoadingStrategy",
    "FileServerLoad",
    "NodeTransferLoad",
    "CollectiveLoad",
    "LocalDiskLoad",
    "AdaptiveSelector",
]


@dataclass(frozen=True)
class LoadContext:
    """Everything the fitness functions may consult for one request.

    Bandwidths are the links' *effective* (possibly fault-degraded)
    values at request time, not the nominal hardware figures — a
    slow-disk or slow-fileserver episode injected by :mod:`repro.faults`
    lowers them, and the fitness ranking then steers loads toward the
    cooperative cache until the episode ends.
    """

    key: Hashable
    nbytes: int
    requester: int  #: node id
    holders: frozenset[int] = frozenset()  #: nodes whose caches hold the item
    fileserver_queue: int = 0  #: transfers currently queued at the fileserver
    fabric_queue: int = 0
    concurrent_requesters: int = 1  #: nodes requesting this item right now
    fileserver_bandwidth: float = 1.0  #: effective (degraded) bytes/s
    fileserver_latency: float = 0.0
    fabric_bandwidth: float = 1.0  #: effective (degraded) bytes/s
    fabric_latency: float = 0.0
    # Live utilization (contention-aware fitness).  ``*_busy`` counts
    # transfers currently *holding* a stream, ``*_streams`` is the
    # link's parallel-stream capacity.  The defaults (0 busy across 1
    # stream) make the pressure term collapse to the plain queue depth,
    # so fitness scores are bit-identical to the pre-contention model
    # unless a proxy populates the live values
    # (``DMSConfig.contention_aware``).
    fileserver_busy: int = 0
    fileserver_streams: int = 1
    fabric_busy: int = 0
    fabric_streams: int = 1
    #: the dataset is replicated on the requester's scratch disk, so the
    #: paper's "hard disk" direct-load strategy is a real candidate.
    local_replica: bool = False
    local_disk_bandwidth: float = 0.0  #: effective (degraded) bytes/s
    local_disk_latency: float = 0.0

    @property
    def fileserver_pressure(self) -> float:
        """Occupied-plus-queued transfers per fileserver stream."""
        return (self.fileserver_busy + self.fileserver_queue) / self.fileserver_streams

    @property
    def fabric_pressure(self) -> float:
        """Occupied-plus-queued transfers per fabric stream."""
        return (self.fabric_busy + self.fabric_queue) / self.fabric_streams


class LoadingStrategy:
    """Interface: availability test plus a fitness score (higher = better)."""

    name = "base"

    def available(self, ctx: LoadContext) -> bool:
        raise NotImplementedError

    def fitness(self, ctx: LoadContext) -> float:
        """Estimated effective throughput (bytes/s) for this request."""
        raise NotImplementedError


class FileServerLoad(LoadingStrategy):
    """Direct read from the network file server (always possible)."""

    name = "fileserver"

    def available(self, ctx: LoadContext) -> bool:
        return True

    def fitness(self, ctx: LoadContext) -> float:
        # Busy and queued transfers share the server's streams; latency
        # converts to an equivalent bandwidth loss for this transfer
        # size.  With the default (no live-utilization) context the
        # pressure term is exactly the queue depth.
        eff = ctx.fileserver_bandwidth / (1.0 + ctx.fileserver_pressure)
        t = ctx.fileserver_latency + ctx.nbytes / max(eff, 1e-9)
        return ctx.nbytes / max(t, 1e-12)


class NodeTransferLoad(LoadingStrategy):
    """Fetch from another node's cache over the fabric.

    "Data transfer across nodes forms a sort of cooperative cache
    pursuing a greedy caching strategy since no duplicates are deleted
    and every proxy manages its local cache independently." (§4.3)
    """

    name = "node-transfer"

    def available(self, ctx: LoadContext) -> bool:
        return bool(ctx.holders - {ctx.requester})

    def fitness(self, ctx: LoadContext) -> float:
        eff = ctx.fabric_bandwidth / (1.0 + ctx.fabric_pressure)
        t = ctx.fabric_latency + ctx.nbytes / max(eff, 1e-9)
        return ctx.nbytes / max(t, 1e-12)


class CollectiveLoad(LoadingStrategy):
    """Coordinated read when several nodes want the same item at once.

    One node reads from the file server and broadcasts over the fabric.
    The paper finds this "of limited use in Viracocha because
    coordinating proxies [...] is more expensive than the benefit" —
    the coordination overhead below makes the selector reach the same
    conclusion except at genuine cold-start stampedes.
    """

    name = "collective"

    #: fixed coordination cost in seconds (barrier + bookkeeping).
    coordination_overhead = 0.01

    def available(self, ctx: LoadContext) -> bool:
        return ctx.concurrent_requesters > 1

    def fitness(self, ctx: LoadContext) -> float:
        k = ctx.concurrent_requesters
        read = ctx.fileserver_latency + ctx.nbytes / max(
            ctx.fileserver_bandwidth / (1.0 + ctx.fileserver_pressure), 1e-9
        )
        # The broadcast is a one-shot push on the fabric; queue depth is
        # deliberately *not* added here (a broadcast rides the next
        # free stream), keeping the term identical to the original model.
        bcast = ctx.fabric_latency + ctx.nbytes / max(ctx.fabric_bandwidth, 1e-9)
        # Per-requester effective time: one shared read, one broadcast,
        # plus coordination, versus k independent reads without it.
        t = (read / k) + bcast + self.coordination_overhead
        return ctx.nbytes / max(t, 1e-12)


class LocalDiskLoad(LoadingStrategy):
    """Direct read from a node-local dataset replica.

    §4.3 names "loading data directly from hard disc" as the first of
    the strategy set; it only makes sense when the dataset (or the
    requested timestep) is actually resident on the node's scratch disk
    — ``DMSConfig.local_replica`` asserts exactly that.  Its fitness
    needs no shared-resource pressure term: the scratch disk is private
    to the requester, which is precisely why it wins whenever the
    shared fileserver is remote, congested, or degraded.
    """

    name = "direct-disk"

    def available(self, ctx: LoadContext) -> bool:
        return ctx.local_replica and ctx.local_disk_bandwidth > 0.0

    def fitness(self, ctx: LoadContext) -> float:
        t = ctx.local_disk_latency + ctx.nbytes / max(
            ctx.local_disk_bandwidth, 1e-9
        )
        return ctx.nbytes / max(t, 1e-12)


class AdaptiveSelector:
    """Central strategy chooser living at the scheduler node.

    ``adaptive=False`` pins the file server strategy (the ablation
    baseline); otherwise the available strategy with the best fitness
    wins.
    """

    def __init__(
        self,
        strategies: Sequence[LoadingStrategy] | None = None,
        adaptive: bool = True,
    ):
        # FileServerLoad must stay first: ``adaptive=False`` pins
        # ``strategies[0]`` as the ablation baseline.  LocalDiskLoad is
        # inert unless a context carries ``local_replica=True``.
        self.strategies = (
            list(strategies)
            if strategies is not None
            else [
                FileServerLoad(),
                NodeTransferLoad(),
                CollectiveLoad(),
                LocalDiskLoad(),
            ]
        )
        if not self.strategies:
            raise ValueError("need at least one loading strategy")
        self.adaptive = adaptive
        self.decisions: dict[str, int] = {s.name: 0 for s in self.strategies}
        #: fitness scores of the last adaptive decision, by strategy —
        #: observability into *why* the selector chose what it chose.
        self.last_fitness: dict[str, float] = {}

    def select(self, ctx: LoadContext) -> LoadingStrategy:
        if not self.adaptive:
            chosen = self.strategies[0]
        else:
            candidates = [s for s in self.strategies if s.available(ctx)]
            if not candidates:
                raise LookupError(f"no loading strategy available for {ctx.key!r}")
            self.last_fitness = {s.name: s.fitness(ctx) for s in candidates}
            chosen = max(candidates, key=lambda s: self.last_fitness[s.name])
        self.decisions[chosen.name] = self.decisions.get(chosen.name, 0) + 1
        return chosen

    def publish_metrics(self, registry) -> None:
        """Gauge the most recent fitness scores into a registry."""
        for name, score in sorted(self.last_fitness.items()):
            registry.gauge(
                "viracocha_dms_strategy_fitness",
                {"strategy": name},
                help="effective-throughput fitness of the last adaptive decision",
            ).set(score)
