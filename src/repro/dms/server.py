"""The central data manager server (scheduler-node component).

"A centralized data server that resides at the scheduler node
coordinates all proxies.  It maintains information about the proxies'
local state and deals with data requests [...]  while the data manager
server contains a name server handling unambiguous identifiers, proxies
include a name resolver" (§4.1).

The server also hosts the adaptive loading-strategy selector (§4.3) and
the global holder registry that makes node-to-node transfers (the
greedy cooperative cache) possible.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Hashable

from .items import ItemName, NameService
from .loading import AdaptiveSelector, LoadContext

__all__ = ["DataManagerServer", "InflightLoad"]


@dataclass
class InflightLoad:
    """One physical load registered in the cluster-wide flight table.

    The *winner* node performs the actual transfer; any other node that
    asks the server about the same item while the flight is open
    becomes a *follower*: it waits on ``event`` and then pulls the
    block from the winner's cache over the fabric instead of issuing a
    second physical load.
    """

    ident: int
    node: int  #: winner node id
    event: object  #: DES event; succeeds when the flight closes
    tenant: str = "default"
    nbytes: int = 0
    followers: int = 0


class DataManagerServer:
    """Central coordination state shared by all data proxies."""

    def __init__(self, selector: AdaptiveSelector | None = None):
        self.names = NameService()
        self.selector = selector if selector is not None else AdaptiveSelector()
        self._holders: dict[int, set[int]] = defaultdict(set)  # ident -> node ids
        self._inflight_counts: dict[int, int] = defaultdict(int)
        self.strategy_queries = 0
        #: simulated time until which the server is stalled (fault
        #: injection): proxies wait out the stall before each strategy
        #: query, so a wedged central component shows up as load latency
        #: rather than as lost requests.
        self.stalled_until = 0.0
        self.stall_waits = 0
        #: cluster-wide single-flight table (``DMSConfig.cluster_dedup``):
        #: ident -> the one physical load currently in the air.
        self._flights: dict[int, InflightLoad] = {}
        #: flights that served at least one follower.
        self.dedup_flights = 0
        #: follower attaches across the whole session.
        self.dedup_followers = 0
        #: fileserver bytes followers did not re-read.
        self.dedup_bytes_saved = 0
        #: follower attaches by (winner tenant, follower tenant) — the
        #: cross-tenant sharing ledger for the serving layer.
        self.dedup_followers_by_tenant: Counter = Counter()

    # ----------------------------------------------------------- stalls
    def stall(self, now: float, duration: float) -> None:
        """Wedge the server until ``now + duration`` (fault injection)."""
        if duration < 0:
            raise ValueError(f"negative stall duration {duration}")
        self.stalled_until = max(self.stalled_until, now + duration)

    def stall_extra(self, now: float) -> float:
        """Seconds a proxy must wait before the server answers."""
        extra = self.stalled_until - now
        if extra > 0.0:
            self.stall_waits += 1
            return extra
        return 0.0

    # ------------------------------------------------------- registry
    def register_holder(self, ident: int, node: int) -> None:
        self._holders[ident].add(node)

    def unregister_holder(self, ident: int, node: int) -> None:
        self._holders[ident].discard(node)
        if not self._holders[ident]:
            del self._holders[ident]

    def holders(self, ident: int) -> frozenset[int]:
        return frozenset(self._holders.get(ident, ()))

    # ------------------------------------------------ cluster-wide flights
    def flight_entry(self, ident: int) -> InflightLoad | None:
        """The open flight for ``ident``, if any."""
        return self._flights.get(ident)

    def flight_begin(
        self, ident: int, node: int, event, tenant: str = "default",
        nbytes: int = 0,
    ) -> InflightLoad:
        """Register ``node`` as the winner of the physical load."""
        if ident in self._flights:
            raise RuntimeError(
                f"flight for {ident} already open (winner "
                f"{self._flights[ident].node}); check flight_entry first"
            )
        flight = InflightLoad(
            ident=ident, node=node, event=event, tenant=tenant, nbytes=nbytes
        )
        self._flights[ident] = flight
        return flight

    def flight_attach(self, flight: InflightLoad, tenant: str = "default") -> None:
        """Count one follower on an open flight."""
        flight.followers += 1
        self.dedup_followers += 1
        self.dedup_bytes_saved += flight.nbytes
        self.dedup_followers_by_tenant[(flight.tenant, tenant)] += 1

    def flight_end(self, flight: InflightLoad) -> None:
        """Close a flight and wake every follower.

        Always called (win or crash) from the winner's ``finally``:
        followers must never hang on a dead flight.  They re-check the
        holder table on wake-up, so a failed winner just sends them
        back through the strategy machinery.
        """
        if self._flights.get(flight.ident) is flight:
            del self._flights[flight.ident]
            if flight.followers:
                self.dedup_flights += 1
        if not flight.event.triggered:
            flight.event.succeed()

    # ---------------------------------------------- concurrent requests
    def note_request_start(self, ident: int) -> None:
        self._inflight_counts[ident] += 1

    def note_request_end(self, ident: int) -> None:
        self._inflight_counts[ident] -= 1
        if self._inflight_counts[ident] <= 0:
            del self._inflight_counts[ident]

    def concurrent_requesters(self, ident: int) -> int:
        return max(1, self._inflight_counts.get(ident, 0))

    # ---------------------------------------------------- strategy query
    def choose_strategy(self, ctx: LoadContext):
        """Pick a loading strategy for one forced load (counted per call)."""
        self.strategy_queries += 1
        return self.selector.select(ctx)

    # ----------------------------------------------------------- metrics
    def publish_metrics(self, registry) -> None:
        """Sync server-side counters into a :class:`MetricsRegistry`.

        Idempotent per state (counters are set to current totals), like
        :meth:`repro.dms.stats.DMSStatistics.publish`.
        """
        registry.counter(
            "viracocha_dms_strategy_queries_total",
            help="strategy round-trips answered by the data manager server",
        ).set(self.strategy_queries)
        registry.counter(
            "viracocha_dms_server_stall_waits_total",
            help="proxy requests that had to wait out a server stall",
        ).set(self.stall_waits)
        for strategy, count in sorted(self.selector.decisions.items()):
            registry.counter(
                "viracocha_dms_strategy_decisions_total",
                {"strategy": strategy},
                help="adaptive selector decisions by strategy",
            ).set(count)
        # Dedup series appear only once cluster-wide single flight has
        # actually deduped something, keeping default runs' metric
        # tables unchanged.
        if self.dedup_followers:
            registry.counter(
                "viracocha_dms_dedup_flights_total",
                help="physical loads that served at least one follower",
            ).set(self.dedup_flights)
            registry.counter(
                "viracocha_dms_dedup_followers_total",
                help="forced loads deduped onto another node's flight",
            ).set(self.dedup_followers)
            registry.counter(
                "viracocha_dms_dedup_bytes_saved_total",
                help="fileserver bytes saved by cluster-wide single flight",
            ).set(self.dedup_bytes_saved)
            for (winner, follower), count in sorted(
                self.dedup_followers_by_tenant.items()
            ):
                if winner == "default" and follower == "default":
                    continue
                registry.counter(
                    "viracocha_dms_dedup_followers_total",
                    {"winner_tenant": winner, "follower_tenant": follower},
                    help="forced loads deduped onto another node's flight",
                ).set(count)
