"""Reference LFU/FBR: full scans straight from the policy definitions.

These are the original implementations of
:class:`repro.dms.policies.LFUPolicy` and
:class:`repro.dms.policies.FBRPolicy`, kept as executable references:
``tests/dms/test_policy_equivalence.py`` holds the O(1) bucketed
policies to identical victim sequences against them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable


class ScanLFUPolicy:
    """Reference LFU: full min-scan per eviction (kept for equivalence tests)."""

    def __init__(self) -> None:
        self._counts: dict[Hashable, int] = {}
        self._order: OrderedDict[Hashable, None] = OrderedDict()  # recency tiebreak

    def on_insert(self, key: Hashable) -> None:
        if key in self._counts:
            raise KeyError(f"key {key!r} already tracked")
        self._counts[key] = 1
        self._order[key] = None

    def on_access(self, key: Hashable) -> None:
        self._counts[key] += 1
        self._order.move_to_end(key)

    def victim(self) -> Hashable:
        if not self._counts:
            raise LookupError("no keys to evict")
        min_count = min(self._counts.values())
        for key in self._order:  # oldest first among minimum-count keys
            if self._counts[key] == min_count:
                return key
        raise AssertionError("unreachable")

    def remove(self, key: Hashable) -> None:
        del self._counts[key]
        del self._order[key]

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts


class ScanFBRPolicy:
    """Reference FBR: positional stack walk per operation (for equivalence tests)."""

    def __init__(self, new_fraction: float = 0.3, old_fraction: float = 0.3, a_max: float = 10.0):
        if not 0.0 <= new_fraction < 1.0 or not 0.0 < old_fraction <= 1.0:
            raise ValueError("section fractions must lie in [0, 1)")
        if new_fraction + old_fraction > 1.0:
            raise ValueError("new and old sections may not overlap completely")
        self.new_fraction = new_fraction
        self.old_fraction = old_fraction
        self.a_max = a_max
        self._counts: dict[Hashable, int] = {}
        self._order: OrderedDict[Hashable, None] = OrderedDict()  # MRU last

    # -- section boundaries -------------------------------------------
    def _section_of(self, key: Hashable) -> str:
        n = len(self._order)
        new_size = max(1, int(round(self.new_fraction * n))) if n else 0
        old_size = max(1, int(round(self.old_fraction * n))) if n else 0
        keys = list(self._order)  # LRU -> MRU
        idx = keys.index(key)
        if idx >= n - new_size:
            return "new"
        if idx < old_size:
            return "old"
        return "middle"

    def on_insert(self, key: Hashable) -> None:
        if key in self._counts:
            raise KeyError(f"key {key!r} already tracked")
        self._counts[key] = 1
        self._order[key] = None

    def on_access(self, key: Hashable) -> None:
        if self._section_of(key) != "new":
            self._counts[key] += 1
            self._maybe_rescale()
        self._order.move_to_end(key)

    def _maybe_rescale(self) -> None:
        if self._counts and sum(self._counts.values()) / len(self._counts) > self.a_max:
            for k in self._counts:
                self._counts[k] = (self._counts[k] + 1) // 2

    def victim(self) -> Hashable:
        if not self._counts:
            raise LookupError("no keys to evict")
        n = len(self._order)
        old_size = max(1, int(round(self.old_fraction * n)))
        old_keys = list(self._order)[:old_size]  # LRU end
        min_count = min(self._counts[k] for k in old_keys)
        for key in old_keys:
            if self._counts[key] == min_count:
                return key
        raise AssertionError("unreachable")

    def remove(self, key: Hashable) -> None:
        del self._counts[key]
        del self._order[key]

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts
