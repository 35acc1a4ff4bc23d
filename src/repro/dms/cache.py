"""The two-tiered data cache.

"The Viracocha-DMS uses a two-tiered data cache with a primary cache in
main memory and an optional secondary cache on local hard drives caching
data that come from network fileservers.  [...]  If this first level
cache is not able to include new data items since it is almost full,
selected cached data blocks are moved to the secondary cache." (§4.2)

Tiers here are pure bookkeeping: they hold payloads and decide victims;
the *time cost* of moving bytes between tiers is charged by the runtime
(DES) or implicit (real I/O) at the proxy layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from .policies import ReplacementPolicy, make_policy

__all__ = ["CacheStats", "CacheTier", "TwoTierCache"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.accesses else 0.0


class CacheTier:
    """One capacity-bounded tier with a pluggable replacement policy."""

    def __init__(self, capacity_bytes: int, policy: ReplacementPolicy | str = "fbr", name: str = "cache"):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.name = name
        self._entries: dict[Hashable, tuple[Any, int]] = {}
        self.used_bytes = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------ state
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> list[Hashable]:
        return list(self._entries)

    def size_of(self, key: Hashable) -> int:
        return self._entries[key][1]

    # ----------------------------------------------------------- access
    def get(self, key: Hashable) -> Any | None:
        """Payload for ``key`` or ``None``; counts a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.policy.on_access(key)
        return entry[0]

    def put(self, key: Hashable, payload: Any, nbytes: int) -> list[tuple[Hashable, Any, int]]:
        """Insert ``key``; returns the ``(key, payload, nbytes)`` evicted.

        Items larger than the whole tier are rejected (not cached) and
        reported as an immediate self-eviction of nothing — callers see
        an empty list and a still-absent key.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if key in self._entries:
            # Refresh payload in place (same identity, maybe new size).
            _, old = self._entries[key]
            self._entries[key] = (payload, nbytes)
            self.used_bytes += nbytes - old
            self.policy.on_access(key)
            return self._evict_down()
        if nbytes > self.capacity_bytes:
            return []
        self._entries[key] = (payload, nbytes)
        self.used_bytes += nbytes
        self.policy.on_insert(key)
        return self._evict_down(exclude=key)

    def _evict_down(self, exclude: Hashable | None = None) -> list[tuple[Hashable, Any, int]]:
        evicted = []
        while self.used_bytes > self.capacity_bytes and len(self._entries) > 1:
            victim = self.policy.victim()
            if victim == exclude:
                # Never evict the entry just inserted unless it is alone.
                # Take it out of the policy's view so the *policy's*
                # next-best victim is chosen (not dict insertion order),
                # then restore it; the entry was inserted this call, so
                # re-inserting reproduces its state (count 1, MRU).
                self.policy.remove(exclude)
                try:
                    victim = self.policy.victim()
                finally:
                    self.policy.on_insert(exclude)
            payload, nbytes = self._entries[victim]
            evicted.append((victim, payload, nbytes))
            self.remove(victim)
        return evicted

    def remove(self, key: Hashable) -> None:
        payload, nbytes = self._entries.pop(key)
        self.used_bytes -= nbytes
        self.policy.remove(key)

    def clear(self) -> None:
        for key in list(self._entries):
            self.remove(key)


class TwoTierCache:
    """Primary (memory) tier over an optional secondary (local disk) tier.

    ``get`` promotes L2 hits into L1; ``put`` inserts into L1 and spills
    L1 evictions into L2.  The ``promoted`` / ``spilled`` lists returned
    let the caller charge disk time for tier crossings.
    """

    def __init__(self, l1: CacheTier, l2: CacheTier | None = None):
        self.l1 = l1
        self.l2 = l2

    def get(self, key: Hashable) -> tuple[Any | None, str]:
        """Returns ``(payload, where)`` with ``where`` in {'l1','l2','miss'}."""
        payload = self.l1.get(key)
        if payload is not None:
            return payload, "l1"
        if self.l2 is not None:
            payload = self.l2.get(key)
            if payload is not None:
                nbytes = self.l2.size_of(key)
                self.l2.remove(key)
                self._spill(self.l1.put(key, payload, nbytes))
                return payload, "l2"
        return None, "miss"

    def put(self, key: Hashable, payload: Any, nbytes: int) -> list[tuple[Hashable, Any, int]]:
        """Insert into L1; returns items spilled to L2 (for cost charging)."""
        evicted = self.l1.put(key, payload, nbytes)
        self._spill(evicted)
        return evicted

    def _spill(self, evicted: list[tuple[Hashable, Any, int]]) -> None:
        if self.l2 is None:
            return
        for key, payload, nbytes in evicted:
            if key not in self.l2:
                self.l2.put(key, payload, nbytes)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.l1 or (self.l2 is not None and key in self.l2)

    def holds(self, key: Hashable) -> str | None:
        if key in self.l1:
            return "l1"
        if self.l2 is not None and key in self.l2:
            return "l2"
        return None

    def clear(self) -> None:
        self.l1.clear()
        if self.l2 is not None:
            self.l2.clear()
