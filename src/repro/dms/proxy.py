"""Per-node data proxies.

"Every computing node owns a data proxy that is responsible for the
retrieval of data asked for by a command.  Proxies act like a black box
with the possibility to change system parameters from outside but not
the result of a data request." (§4.1)

A proxy combines the node's two-tier cache, its name resolver, the
prefetcher, and — on every forced load — a strategy query to the
central data manager server.  All time costs are charged on the
simulated cluster: local-disk transfers for L2 crossings, fabric
messages for strategy queries and node-to-node transfers, fileserver
reads for cold loads.

Proxies are deliberately *not* arranged in work groups: they may
exchange data across group boundaries (the greedy cooperative cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..des.cluster import SimCluster, SimNode
from ..des.kernel import Environment, Event
from ..des.network import TransferToken
from ..grids.block import StructuredBlock
from ..obs.spans import NULL_TRACER, SpanTracer
from .cache import CacheTier, TwoTierCache
from .compression import CompressionModel
from .items import ItemName, NameResolver
from .loading import LoadContext, NodeTransferLoad
from .prefetch import NoPrefetcher, Prefetcher
from .server import DataManagerServer
from .source import BlockSource
from .stats import DMSStatistics

__all__ = ["DMSConfig", "DataProxy"]

#: size of the strategy-query / reply messages on the fabric.
_QUERY_BYTES = 256


@dataclass
class DMSConfig:
    """Tunable parameters of one proxy (the "black box" dials)."""

    l1_capacity: int = 2 * 1024**3
    l2_capacity: int | None = 8 * 1024**3  #: None disables the disk tier
    replacement: str = "fbr"
    enable_prefetch: bool = True
    #: extra fabric round trip to the server per forced load (§4.3).
    strategy_query: bool = True
    #: cap on concurrently in-flight prefetch loads per proxy; OBL is by
    #: definition one-block-lookahead, so speculative reads must not
    #: stampede the fileserver ahead of demand misses.
    max_inflight_prefetches: int = 4
    #: cluster-wide single flight: concurrent commands/tenants hitting
    #: the same item dedupe to one physical load, with followers
    #: attaching to the winner's transfer and pulling the block over
    #: the fabric afterwards.  Off by default — the paper's per-proxy
    #: behavior, and the configuration the golden fingerprints pin.
    cluster_dedup: bool = False
    #: wire codec for fileserver/fabric transfer paths; ``None``
    #: reproduces the paper's call of shipping raw bytes.  With a codec
    #: set, every transfer makes a compress-vs-raw decision against the
    #: link's current effective bandwidth (see
    #: :meth:`DataProxy._wire_transfer`).
    compression: CompressionModel | None = None
    #: feed live link utilization (busy streams + queue depth per
    #: stream) into the strategy fitness functions instead of the bare
    #: queue length.  Off by default for fingerprint stability.
    contention_aware: bool = False
    #: the dataset is replicated on every node's scratch disk, enabling
    #: the paper's direct-from-hard-disk loading strategy.
    local_replica: bool = False


class DataProxy:
    """One node's gateway to named data items."""

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        node: SimNode,
        server: DataManagerServer,
        source: BlockSource,
        config: DMSConfig | None = None,
        prefetcher: Prefetcher | None = None,
        tracer: SpanTracer = NULL_TRACER,
    ):
        self.env = env
        self.cluster = cluster
        self.node = node
        self.server = server
        self.source = source
        self.config = config or DMSConfig()
        l1 = CacheTier(self.config.l1_capacity, self.config.replacement, name="l1")
        l2 = (
            CacheTier(self.config.l2_capacity, self.config.replacement, name="l2")
            if self.config.l2_capacity
            else None
        )
        self.cache = TwoTierCache(l1, l2)
        self.resolver = NameResolver(server.names)
        self.prefetcher = prefetcher if prefetcher is not None else NoPrefetcher()
        self.stats = DMSStatistics()
        self.tracer = tracer
        self._inflight: dict[int, Event] = {}
        self._inflight_tokens: dict[int, "TransferToken"] = {}
        self._inflight_prefetches = 0
        #: tenant whose command this proxy's worker is currently
        #: serving; the scheduler sets it while the work group is held
        #: (groups are exclusive, so one value per proxy suffices).
        self.current_tenant = "default"

    # ---------------------------------------------------------- helpers
    def holds(self, item: ItemName) -> str | None:
        return self.cache.holds(self.resolver.resolve(item))

    def _admit(self, ident: int, payload: StructuredBlock, nbytes: int) -> list:
        spilled = self.cache.put(ident, payload, nbytes)
        self.server.register_holder(ident, self.node.node_id)
        # Items that fell out of both tiers are gone from this node.
        for key, _payload, _nb in spilled:
            if self.cache.holds(key) is None:
                self.server.unregister_holder(key, self.node.node_id)
                self.stats.forget_prefetched(key)
        return spilled

    def _build_context(self, ident: int, nbytes: int) -> LoadContext:
        # Bandwidths are *effective* values: fault episodes degrade a
        # link, and the fitness functions should see that degradation so
        # the selector can route around a slow fileserver (§4.3's
        # "react on environment changes").
        cfg = self.cluster.config
        extra = {}
        if self.config.contention_aware:
            # Live utilization: transfers holding a stream right now,
            # and how many streams each link actually has.  The default
            # context (0 busy / 1 stream) reduces the pressure term to
            # the bare queue depth, so turning this on is the only way
            # fitness scores can differ from the original model.
            fs_wire = self.cluster.fileserver._wire
            fab_wire = self.cluster.fabric._wire
            extra = dict(
                fileserver_busy=fs_wire.count,
                fileserver_streams=fs_wire.capacity,
                fabric_busy=fab_wire.count,
                fabric_streams=fab_wire.capacity,
            )
        return LoadContext(
            key=ident,
            nbytes=nbytes,
            requester=self.node.node_id,
            holders=self.server.holders(ident),
            fileserver_queue=self.cluster.fileserver._wire.queue_len,
            fabric_queue=self.cluster.fabric._wire.queue_len,
            concurrent_requesters=self.server.concurrent_requesters(ident),
            fileserver_bandwidth=self.cluster.fileserver.effective_bandwidth,
            fileserver_latency=cfg.fileserver_latency,
            fabric_bandwidth=self.cluster.fabric.effective_bandwidth,
            fabric_latency=cfg.fabric_latency,
            local_replica=self.config.local_replica,
            local_disk_bandwidth=self.node.local_disk.effective_bandwidth,
            local_disk_latency=cfg.local_disk_latency,
            **extra,
        )

    # ------------------------------------------------------------- wire
    def _wire_transfer(
        self,
        link_name: str,
        nbytes: int,
        priority: int = 0,
        token: "TransferToken | None" = None,
        parent_span=None,
    ) -> Generator[Event, None, None]:
        """Process body: move ``nbytes`` to this node over one link.

        ``link_name`` is ``"fileserver"`` or ``"fabric"``.  With a
        codec configured (``DMSConfig.compression``) each transfer
        makes a cost-aware compress-vs-raw call against the link's
        *current* effective bandwidth — nominal rate, fault
        degradation, and stream pressure all included — so the same
        codec ships raw on an idle shared-memory fabric (the paper's
        2004 judgement) and compressed over a congested or WAN-grade
        fileserver link.  Codec seconds run on this node's CPU (the
        model gives neither the fileserver nor a donor node a CPU of
        its own) inside ``decompress``-kind spans, which the
        critical-path taxonomy charges to the ``decompress`` phase.
        """
        codec = self.config.compression
        link = (
            self.cluster.fileserver
            if link_name == "fileserver"
            else self.cluster.fabric
        )
        if codec is not None:
            wire = link._wire
            pressure = (wire.count + wire.queue_len) / wire.capacity
            eff = link.effective_bandwidth / (1.0 + pressure)
            if codec.worthwhile(nbytes, eff, link.latency):
                compress_s = nbytes / codec.compress_rate
                decompress_s = nbytes / codec.decompress_rate
                wire_bytes = max(1, int(nbytes * codec.ratio))
                rate = self.node.config.cpu_rate
                cspan = self.tracer.begin(
                    "decompress", name=f"{codec.name}-compress",
                    node=self.node.node_id, parent=parent_span,
                    nbytes=nbytes, link=link_name,
                )
                yield from self.node.compute(compress_s * rate)
                self.tracer.end(cspan)
                if link_name == "fileserver":
                    yield from self.cluster.read_fileserver(
                        self.node, wire_bytes, priority=priority, token=token
                    )
                else:
                    yield from self.cluster.fabric_transfer(
                        self.node, wire_bytes, account="read"
                    )
                dspan = self.tracer.begin(
                    "decompress", name=f"{codec.name}-decompress",
                    node=self.node.node_id, parent=parent_span,
                    nbytes=nbytes, link=link_name,
                )
                yield from self.node.compute(decompress_s * rate)
                self.tracer.end(dspan)
                self.stats.record_compression(
                    "compress", nbytes, wire_bytes, compress_s + decompress_s
                )
                return
            self.stats.record_compression("raw", nbytes, nbytes, 0.0)
        if link_name == "fileserver":
            yield from self.cluster.read_fileserver(
                self.node, nbytes, priority=priority, token=token
            )
        else:
            yield from self.cluster.fabric_transfer(
                self.node, nbytes, account="read"
            )

    # ------------------------------------------------------------- load
    def _forced_load(
        self,
        item: ItemName,
        ident: int,
        nbytes: int,
        demand: bool,
        token: "TransferToken | None" = None,
        parent_span=None,
    ) -> Generator[Event, None, StructuredBlock]:
        """Process body: run one forced load, charging simulated time."""
        self.server.note_request_start(ident)
        strategy_name: str | None = None
        span_attrs: dict = {}
        flight = None
        span = self.tracer.begin(
            "dms-strategy-load", name=str(item), node=self.node.node_id,
            parent=parent_span, demand=demand, nbytes=nbytes,
        )
        try:
            t_load = self.env.now
            # A stalled server (fault injection) answers nothing until
            # the stall ends; the proxy blocks rather than losing the
            # request, so commands still terminate.
            stall = self.server.stall_extra(self.env.now)
            if stall > 0.0:
                yield self.env.timeout(stall)
            if self.config.strategy_query:
                # Ask the central server which strategy to use (§4.3's
                # "additional communication for every load operation").
                yield from self.cluster.fabric_transfer(
                    self.node, _QUERY_BYTES, account="other"
                )
            if self.config.cluster_dedup:
                # Cluster-wide single flight: if another node is already
                # loading this item, attach to its flight instead of
                # issuing a second physical load; on wake-up, pull the
                # block from the winner's cache over the fabric.  A
                # failed winner (crash mid-load) leaves no holder, and
                # the follower loops back to contend for the flight
                # itself — nothing ever hangs on a dead flight.
                while True:
                    entry = self.server.flight_entry(ident)
                    if entry is None:
                        flight = self.server.flight_begin(
                            ident, self.node.node_id, self.env.event(),
                            tenant=self.current_tenant, nbytes=nbytes,
                        )
                        break
                    if entry.node == self.node.node_id:
                        # This node already owns the flight (re-load
                        # after a mid-wait eviction): just load again.
                        break
                    self.server.flight_attach(entry, tenant=self.current_tenant)
                    self.stats.record_dedup_follow(nbytes)
                    span_attrs["dedup"] = "follow"
                    span_attrs["winner"] = entry.node
                    yield entry.event
                    if self.server.holders(ident) - {self.node.node_id}:
                        yield from self._wire_transfer(
                            "fabric", nbytes, parent_span=span
                        )
                        strategy_name = "dedup-follow"
                        self.stats.record_load(
                            strategy_name, nbytes, self.env.now - t_load
                        )
                        payload = self.source.get(item)
                        spilled = self._admit(ident, payload, nbytes)
                        if self.cache.l2 is not None:
                            for _key, _p, spill_bytes in spilled:
                                yield from self.node.write_local(spill_bytes)
                        return payload
            strategy = self.server.choose_strategy(
                self._build_context(ident, nbytes)
            )
            strategy_name = strategy.name
            priority = 0 if demand else 1  # prefetch I/O yields to demand
            if isinstance(strategy, NodeTransferLoad):
                yield from self._wire_transfer(
                    "fabric", nbytes, parent_span=span
                )
            elif strategy.name == "collective":
                k = self.server.concurrent_requesters(ident)
                # One shared fileserver read, then a fabric broadcast;
                # the shared read's cost is split across participants.
                yield from self._wire_transfer(
                    "fileserver", nbytes // max(k, 1), priority=priority,
                    parent_span=span,
                )
                yield from self._wire_transfer(
                    "fabric", nbytes, parent_span=span
                )
            elif strategy.name == "direct-disk":
                # The dataset replica on this node's scratch disk.
                yield from self.node.read_local(nbytes)
            else:
                yield from self._wire_transfer(
                    "fileserver", nbytes, priority=priority, token=token,
                    parent_span=span,
                )
            self.stats.record_load(strategy.name, nbytes, self.env.now - t_load)
            payload = self.source.get(item)
            spilled = self._admit(ident, payload, nbytes)
            # Spills to the disk tier cost a local write.
            if self.cache.l2 is not None:
                for _key, _p, spill_bytes in spilled:
                    yield from self.node.write_local(spill_bytes)
            return payload
        finally:
            if flight is not None:
                self.server.flight_end(flight)
                if flight.followers:
                    span_attrs["dedup_followers"] = flight.followers
            if strategy_name:
                span_attrs["strategy"] = strategy_name
            self.tracer.end(span, **span_attrs)
            self.server.note_request_end(ident)

    # ---------------------------------------------------------- request
    def request(
        self, item: ItemName, parent_span=None
    ) -> Generator[Event, None, StructuredBlock]:
        """Process body: return the block for ``item`` (demand access)."""
        ident = self.resolver.resolve(item)
        lookup = self.tracer.begin(
            "dms-lookup", name=str(item), node=self.node.node_id,
            parent=parent_span,
        )
        payload, where = self.cache.get(ident)
        self.stats.record_request(ident, where)
        try:
            if where == "l2":
                # Promotion from the disk tier costs a local read.
                yield from self.node.read_local(self.source.modeled_bytes(item))
        finally:
            self.tracer.end(lookup, where=where)
        if payload is None:
            pending = self._inflight.get(ident)
            if pending is not None:
                # Demand now depends on an in-flight (possibly
                # background-priority) load: escalate it.
                boost = self._inflight_tokens.get(ident)
                if boost is not None:
                    boost.boost()
                self.stats.record_inflight_hit(ident)
                t_wait = self.env.now
                yield pending
                self.node.breakdown.read += self.env.now - t_wait
                payload, _ = self.cache.get(ident)
                if payload is None:  # evicted between load and wakeup
                    payload = yield from self._forced_load(
                        item, ident, self.source.modeled_bytes(item),
                        demand=True, parent_span=parent_span,
                    )
            else:
                done = self.env.event()
                self._inflight[ident] = done
                try:
                    payload = yield from self._forced_load(
                        item, ident, self.source.modeled_bytes(item),
                        demand=True, parent_span=parent_span,
                    )
                finally:
                    del self._inflight[ident]
                    done.succeed()
        self._issue_prefetches(item, was_hit=where != "miss", parent_span=parent_span)
        return payload

    # ---------------------------------------------------------- derived
    def lookup_derived(
        self, item: ItemName, count_miss: bool = True
    ) -> tuple[Any, str | None]:
        """Cache-only lookup of a derived item (no load path exists).

        Derived items are computed, not read, so a miss has no transfer
        strategy to fall back on — the caller recomputes and calls
        :meth:`store_derived`.  Returns ``(payload, where)`` with
        ``where`` in ``("l1", "l2")`` on a hit and ``None`` on a miss.
        ``count_miss=False`` keeps a *probe* miss out of the statistics:
        the caller will look up again (and then miss for real) once it
        has gathered the inputs to derive the item.
        """
        ident = self.resolver.resolve(item)
        payload, where = self.cache.get(ident)
        if payload is not None:
            self.stats.record_derived(where)
        elif count_miss:
            self.stats.record_derived(None)
        return payload, (where if payload is not None else None)

    def store_derived(
        self, item: ItemName, payload: Any, nbytes: int
    ) -> Generator[Event, None, None]:
        """Process body: admit a freshly derived item, charging spills."""
        ident = self.resolver.resolve(item)
        spilled = self._admit(ident, payload, nbytes)
        # Spills to the disk tier cost a local write.
        if self.cache.l2 is not None:
            for _key, _p, spill_bytes in spilled:
                yield from self.node.write_local(spill_bytes)

    # --------------------------------------------------------- prefetch
    def _issue_prefetches(
        self, item: ItemName, was_hit: bool, parent_span=None
    ) -> None:
        suggestions = self.prefetcher.observe(item, was_hit)
        if not self.config.enable_prefetch:
            return
        for suggestion in suggestions:
            self.prefetch(suggestion, parent_span=parent_span)

    def prefetch(self, item: ItemName, parent_span=None) -> bool:
        """Start a background load of ``item``; returns True if issued.

        Used both by the system prefetcher and for code prefetching,
        where "the worker command itself is responsible to determine a
        suitable code location and a useful time" (§4.2).
        """
        ident = self.resolver.resolve(item)
        # Prefetch only opportunistically: skip when already cached or
        # in flight, when this proxy's lookahead budget is in use, or
        # when demand reads are already queueing at the fileserver — at
        # saturation a speculative read cannot help (it only adds bytes
        # to the binding resource), so it must not be issued at all.
        if (
            self.cache.holds(ident) is not None
            or ident in self._inflight
            or self._inflight_prefetches >= self.config.max_inflight_prefetches
            or self.cluster.fileserver._wire.queue_len > 0
        ):
            self.stats.record_prefetch(ident, issued=False)
            return False
        done = self.env.event()
        token = TransferToken(self.env)
        self._inflight[ident] = done
        self._inflight_tokens[ident] = token
        self._inflight_prefetches += 1

        def runner():
            pspan = self.tracer.begin(
                "dms-prefetch", name=str(item), node=self.node.node_id,
                parent=parent_span,
            )
            try:
                yield from self._forced_load(
                    item,
                    ident,
                    self.source.modeled_bytes(item),
                    demand=False,
                    token=token,
                    parent_span=pspan,
                )
            finally:
                self.tracer.end(pspan)
                del self._inflight[ident]
                del self._inflight_tokens[ident]
                self._inflight_prefetches -= 1
                done.succeed()

        self.env.process(runner(), name=f"prefetch-{ident}")
        self.stats.record_prefetch(ident, issued=True)
        return True
