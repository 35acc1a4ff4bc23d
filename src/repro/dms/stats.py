"""The statistical unit of the DMS.

"...the system prefetch mechanism utilizes information gathered from a
statistical unit of the DMS that records various information of the
system behavior" (§4.2).  This module also tracks prefetch usefulness
(how many misses prefetching eliminated — paper Fig. 14 reports up to
95 % of cache misses removed for pathlines).

The counters here are the *source of truth*; :meth:`DMSStatistics.publish`
syncs them into a :class:`repro.obs.MetricsRegistry` so per-node and
global views unify under one metric namespace (``viracocha_dms_*``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable

__all__ = ["DMSStatistics"]

#: the only cache-lookup outcomes proxies report; anything else is
#: normalized to a miss (defensive: an unknown tier label must never
#: inflate prefetch usefulness).
_HIT_TIERS = frozenset({"l1", "l2"})
_KNOWN_WHERE = frozenset({"l1", "l2", "miss"})


@dataclass
class DMSStatistics:
    """Counters describing observed DMS behavior on one node or globally."""

    requests: int = 0
    hits_l1: int = 0
    hits_l2: int = 0
    misses: int = 0
    loads_by_strategy: Counter = field(default_factory=Counter)
    #: simulated seconds spent in forced loads, by strategy — the raw
    #: material for the critical-path load_disk/load_wire phase split.
    load_seconds_by_strategy: Counter = field(default_factory=Counter)
    bytes_loaded: int = 0
    prefetches_issued: int = 0
    prefetches_useful: int = 0
    prefetches_dropped: int = 0
    #: demand misses that at least overlapped an in-flight prefetch.
    misses_covered: int = 0
    #: forced loads that attached to another node's in-flight load
    #: instead of issuing their own (cluster-wide single flight).
    dedup_follows: int = 0
    #: fileserver bytes those followers did not have to re-read.
    dedup_bytes_saved: int = 0
    #: per-transfer compress-vs-raw decisions ({"compress": n, "raw": m}).
    compression_decisions: Counter = field(default_factory=Counter)
    #: wire bytes saved by compressed transfers (raw - shipped).
    compression_bytes_saved: int = 0
    #: simulated seconds spent in codec work (compress + decompress).
    compression_seconds: float = 0.0
    #: derived-item (e.g. block-pyramid) cache lookups, by outcome.
    #: Separate from the block counters: derived items have no load
    #: path, so a derived miss means recomputation, not a transfer.
    derived_hits_l1: int = 0
    derived_hits_l2: int = 0
    derived_misses: int = 0
    _pending_prefetched: set = field(default_factory=set)
    #: pre-bound metric handles, keyed by (registry id, node label) so
    #: repeated :meth:`publish` calls skip the (name, label-key) lookup.
    _handles: dict = field(default_factory=dict, repr=False, compare=False)

    # --------------------------------------------------------- recording
    @staticmethod
    def normalize_where(where: str) -> str:
        """Map a cache-lookup outcome onto {'l1', 'l2', 'miss'}."""
        return where if where in _KNOWN_WHERE else "miss"

    def record_request(self, key: Hashable, where: str) -> None:
        where = self.normalize_where(where)
        self.requests += 1
        if where == "l1":
            self.hits_l1 += 1
        elif where == "l2":
            self.hits_l2 += 1
        else:
            self.misses += 1
        # Prefetch usefulness counts only on genuine cache hits; a miss
        # that overlapped an in-flight prefetch is credited separately
        # via record_inflight_hit.
        if key in self._pending_prefetched and where in _HIT_TIERS:
            self.prefetches_useful += 1
            self._pending_prefetched.discard(key)

    def record_load(self, strategy: str, nbytes: int, seconds: float = 0.0) -> None:
        self.loads_by_strategy[strategy] += 1
        self.load_seconds_by_strategy[strategy] += seconds
        self.bytes_loaded += nbytes

    def record_derived(self, where: str | None) -> None:
        """One derived-item cache lookup; ``where`` is l1/l2 or None."""
        if where == "l1":
            self.derived_hits_l1 += 1
        elif where == "l2":
            self.derived_hits_l2 += 1
        else:
            self.derived_misses += 1

    def record_dedup_follow(self, nbytes: int) -> None:
        """A forced load attached to another node's in-flight load."""
        self.dedup_follows += 1
        self.dedup_bytes_saved += nbytes

    def record_compression(
        self, decision: str, nbytes: int, wire_bytes: int, seconds: float
    ) -> None:
        """One compress-vs-raw call on the transfer path.

        ``decision`` is ``"compress"`` or ``"raw"``; ``wire_bytes`` is
        what actually crossed the link, ``seconds`` the simulated codec
        time charged (0 for raw transfers).
        """
        self.compression_decisions[decision] += 1
        self.compression_bytes_saved += nbytes - wire_bytes
        self.compression_seconds += seconds

    def record_prefetch(self, key: Hashable, issued: bool) -> None:
        if issued:
            self.prefetches_issued += 1
            self._pending_prefetched.add(key)
        else:
            self.prefetches_dropped += 1

    def record_inflight_hit(self, key: Hashable) -> None:
        """A demand access arrived while the prefetch was still loading.

        The prefetch still overlapped part of the I/O, so it counts as
        useful even though the demand access itself was a miss.
        """
        if key in self._pending_prefetched:
            self.prefetches_useful += 1
            self.misses_covered += 1
            self._pending_prefetched.discard(key)

    def forget_prefetched(self, key: Hashable) -> None:
        """A prefetched item was evicted before any demand access."""
        self._pending_prefetched.discard(key)

    # ------------------------------------------------------------ derived
    @property
    def hits(self) -> int:
        return self.hits_l1 + self.hits_l2

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.requests if self.requests else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        return (
            self.prefetches_useful / self.prefetches_issued
            if self.prefetches_issued
            else 0.0
        )

    def merge(self, other: "DMSStatistics") -> None:
        self.requests += other.requests
        self.hits_l1 += other.hits_l1
        self.hits_l2 += other.hits_l2
        self.misses += other.misses
        self.loads_by_strategy.update(other.loads_by_strategy)
        self.load_seconds_by_strategy.update(other.load_seconds_by_strategy)
        self.bytes_loaded += other.bytes_loaded
        self.prefetches_issued += other.prefetches_issued
        self.prefetches_useful += other.prefetches_useful
        self.prefetches_dropped += other.prefetches_dropped
        self.misses_covered += other.misses_covered
        self.dedup_follows += other.dedup_follows
        self.dedup_bytes_saved += other.dedup_bytes_saved
        self.compression_decisions.update(other.compression_decisions)
        self.compression_bytes_saved += other.compression_bytes_saved
        self.compression_seconds += other.compression_seconds
        self.derived_hits_l1 += other.derived_hits_l1
        self.derived_hits_l2 += other.derived_hits_l2
        self.derived_misses += other.derived_misses

    # ---------------------------------------------------------- metrics
    def publish(self, registry, node: str = "all") -> None:
        """Sync these cumulative counters into a metrics registry.

        Safe to call repeatedly (idempotent per state): counters are
        *set* to the current totals rather than incremented, gauges
        carry the derived rates.  ``node`` labels the series so one
        registry holds every proxy's view next to the global merge.
        """
        handles = self._handles.get((id(registry), node))
        if handles is None:
            handles = self._handles[(id(registry), node)] = (
                self._bind(registry, node)
            )
        (requests, hits_l1, hits_l2, misses, bytes_loaded, issued, useful,
         dropped, covered, hit_rate, accuracy, loads, load_seconds) = handles
        requests.set(self.requests)
        hits_l1.set(self.hits_l1)
        hits_l2.set(self.hits_l2)
        misses.set(self.misses)
        bytes_loaded.set(self.bytes_loaded)
        for strategy, count in sorted(self.loads_by_strategy.items()):
            handle = loads.get(strategy)
            if handle is None:
                handle = loads[strategy] = registry.counter(
                    "viracocha_dms_loads_total",
                    {"node": node, "strategy": strategy},
                    help="forced loads by loading strategy",
                )
            handle.set(count)
        for strategy, seconds in sorted(self.load_seconds_by_strategy.items()):
            handle = load_seconds.get(strategy)
            if handle is None:
                handle = load_seconds[strategy] = registry.counter(
                    "viracocha_dms_load_seconds_total",
                    {"node": node, "strategy": strategy},
                    help="simulated seconds spent in forced loads by strategy",
                )
            handle.set(seconds)
        issued.set(self.prefetches_issued)
        useful.set(self.prefetches_useful)
        dropped.set(self.prefetches_dropped)
        covered.set(self.misses_covered)
        hit_rate.set(self.hit_rate)
        accuracy.set(self.prefetch_accuracy)
        # Cluster-dedup and wire-compression series appear only once
        # the features have fired, so default runs publish exactly the
        # pre-existing metric set.
        labels = {"node": node}
        if self.dedup_follows:
            registry.counter(
                "viracocha_dms_dedup_follows_total", labels,
                help="forced loads that attached to another node's in-flight load",
            ).set(self.dedup_follows)
            registry.counter(
                "viracocha_dms_dedup_bytes_saved_total", labels,
                help="fileserver bytes saved by cluster-wide single flight",
            ).set(self.dedup_bytes_saved)
        for decision, count in sorted(self.compression_decisions.items()):
            registry.counter(
                "viracocha_dms_compression_decisions_total",
                {**labels, "decision": decision},
                help="per-transfer compress-vs-raw decisions",
            ).set(count)
        if self.compression_decisions:
            registry.counter(
                "viracocha_dms_compression_bytes_saved_total", labels,
                help="wire bytes saved by compressed transfers",
            ).set(self.compression_bytes_saved)
            registry.counter(
                "viracocha_dms_compression_seconds_total", labels,
                help="simulated codec seconds (compress + decompress)",
            ).set(self.compression_seconds)
        # Derived-item series appear only for commands that cache
        # derived data (e.g. progressive pyramids), same contract.
        if self.derived_hits_l1 or self.derived_hits_l2 or self.derived_misses:
            for tier, value in (
                ("l1", self.derived_hits_l1), ("l2", self.derived_hits_l2),
            ):
                registry.counter(
                    "viracocha_dms_derived_hits_total", {**labels, "tier": tier},
                    help="derived-item cache hits by tier",
                ).set(value)
            registry.counter(
                "viracocha_dms_derived_misses_total", labels,
                help="derived-item cache misses (recomputations)",
            ).set(self.derived_misses)

    def _bind(self, registry, node: str) -> tuple:
        """Create/look up every fixed series once; see ``_handles``."""
        labels = {"node": node}
        return (
            registry.counter(
                "viracocha_dms_requests_total", labels,
                help="block requests seen by the DMS",
            ),
            registry.counter(
                "viracocha_dms_hits_total", {**labels, "tier": "l1"},
                help="cache hits by tier",
            ),
            registry.counter(
                "viracocha_dms_hits_total", {**labels, "tier": "l2"},
                help="cache hits by tier",
            ),
            registry.counter(
                "viracocha_dms_misses_total", labels, help="cache misses",
            ),
            registry.counter(
                "viracocha_dms_bytes_loaded_total", labels,
                help="bytes brought in by forced loads",
            ),
            registry.counter(
                "viracocha_dms_prefetches_issued_total", labels,
                help="prefetch loads started",
            ),
            registry.counter(
                "viracocha_dms_prefetches_useful_total", labels,
                help="prefetches later hit by demand",
            ),
            registry.counter(
                "viracocha_dms_prefetches_dropped_total", labels,
                help="prefetch suggestions not issued",
            ),
            registry.counter(
                "viracocha_dms_misses_covered_total", labels,
                help="demand misses that overlapped an in-flight prefetch",
            ),
            registry.gauge(
                "viracocha_dms_hit_rate", labels, help="cache hit rate",
            ),
            registry.gauge(
                "viracocha_dms_prefetch_accuracy", labels,
                help="useful / issued prefetches",
            ),
            {},  # per-strategy viracocha_dms_loads_total handles
            {},  # per-strategy viracocha_dms_load_seconds_total handles
        )
