"""Cache replacement policies: LRU, LFU and FBR.

The paper evaluated standard replacement algorithms "such as LRU
(replacing the least recently used block), LFU (replacing the least
frequently used block) and FBR (frequency based replacement, a
trade-off between LFU and LRU, proposed in [Robinson & Devarakonda
1990])" and found frequency-based strategies, foremost FBR, to produce
fewer misses on CFD data requests.

All policies share a small interface so :class:`~repro.dms.cache.CacheTier`
can be parameterized; keys are opaque hashables (item identifiers).

:class:`LFUPolicy` / :class:`FBRPolicy` are frequency-bucket versions
with O(1) amortized ``on_access``/``victim`` (no full-table scan per
eviction).  The straight-from-the-definition scans they replaced live
in ``tests/dms/scan_policies.py`` as executable references;
``tests/dms/test_policy_equivalence.py`` drives both through randomized
traces and asserts identical victim sequences.

Victim *identity* decides cache placement and therefore every simulated
timestamp downstream, so the bucketed versions are equivalent by
construction, not merely "close": the bucket orderings below are proven
to coincide with the scan orderings in the class docstrings.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Protocol

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "FBRPolicy",
    "make_policy",
]


class ReplacementPolicy(Protocol):
    """Interface required by cache tiers."""

    def on_insert(self, key: Hashable) -> None: ...

    def on_access(self, key: Hashable) -> None: ...

    def victim(self) -> Hashable: ...

    def remove(self, key: Hashable) -> None: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: Hashable) -> bool: ...


class LRUPolicy:
    """Evict the least recently used key."""

    def __init__(self) -> None:
        self._order: OrderedDict[Hashable, None] = OrderedDict()

    def on_insert(self, key: Hashable) -> None:
        if key in self._order:
            raise KeyError(f"key {key!r} already tracked")
        self._order[key] = None

    def on_access(self, key: Hashable) -> None:
        self._order.move_to_end(key)

    def victim(self) -> Hashable:
        if not self._order:
            raise LookupError("no keys to evict")
        return next(iter(self._order))

    def remove(self, key: Hashable) -> None:
        del self._order[key]

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order


class LFUPolicy:
    """Evict the least frequently used key (LRU tiebreak) — O(1) amortized.

    ``_buckets[c]`` holds the count-``c`` keys, least recently accessed
    first.  A key's last touch is exactly the event that moved it into
    its current bucket (counts only ever increase), so within-bucket
    FIFO order *is* global recency order restricted to that count, and
    the victim is simply the head of the minimum nonempty bucket —
    identical to the reference full scan (``ScanLFUPolicy`` in
    ``tests/dms/scan_policies.py``), without the scan.

    ``_min`` is a monotone cursor over bucket counts: inserts reset it
    to 1 (new keys enter at count 1), :meth:`victim` walks it upward
    past empty buckets.  Each upward step is paid for by a preceding
    count increment, hence amortized O(1).
    """

    def __init__(self) -> None:
        self._counts: dict[Hashable, int] = {}
        self._buckets: dict[int, OrderedDict[Hashable, None]] = {}
        self._min = 1

    def on_insert(self, key: Hashable) -> None:
        if key in self._counts:
            raise KeyError(f"key {key!r} already tracked")
        self._counts[key] = 1
        bucket = self._buckets.get(1)
        if bucket is None:
            bucket = self._buckets[1] = OrderedDict()
        bucket[key] = None
        self._min = 1

    def on_access(self, key: Hashable) -> None:
        count = self._counts[key]
        self._counts[key] = count + 1
        bucket = self._buckets[count]
        del bucket[key]
        if not bucket:
            del self._buckets[count]
        nxt = self._buckets.get(count + 1)
        if nxt is None:
            nxt = self._buckets[count + 1] = OrderedDict()
        nxt[key] = None

    def victim(self) -> Hashable:
        if not self._counts:
            raise LookupError("no keys to evict")
        buckets = self._buckets
        m = self._min
        while m not in buckets:
            m += 1
        self._min = m
        return next(iter(buckets[m]))

    def remove(self, key: Hashable) -> None:
        count = self._counts.pop(key)
        bucket = self._buckets[count]
        del bucket[key]
        if not bucket:
            del self._buckets[count]

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts


class FBRPolicy:
    """Frequency-based replacement (Robinson & Devarakonda, 1990).

    The recency stack is partitioned into a *new*, *middle* and *old*
    section.  Hits in the new section do **not** increment the reference
    count — this factors out short-term temporal locality, which plain
    LFU wrongly counts as long-term popularity.  The victim is the
    least-frequently-used key within the old section (LRU tiebreak).
    Counts are periodically halved once the average exceeds ``a_max``
    so the policy can adapt to shifting access patterns.

    This implementation is O(1) amortized per operation where the
    reference ``ScanFBRPolicy`` (``tests/dms/scan_policies.py``) rebuilds
    the whole stack as a list on every access *and* sums every count to
    test for rescaling.  It keeps:

    * a doubly-linked recency list (``_nxt``/``_prv`` keyed by key,
      LRU at the head side) so moves are pointer splices;
    * the new section as a set plus a ``_new_first`` cursor on its
      LRU-most member — the section is always a contiguous MRU suffix,
      so membership growth/shrink only ever moves the cursor by one;
    * the old section as ``{key: count-at-entry}`` plus frequency
      buckets in entry order and an ``_old_last`` cursor on its
      MRU-most member.  A key enters the old section only as the
      positional successor of the current section (boundary growth),
      which is strictly more recent than every member, so bucket entry
      order coincides with positional LRU order and the victim is the
      head of the minimum bucket — the same key the scan finds;
    * a running ``_total`` of counts so the rescale trigger
      (``sum/len > a_max``, same integer arithmetic as the scan) is
      O(1).  The rescale itself stays O(n), exactly as in the scan,
      and rebuilds the old-section buckets in one prefix walk.

    Section target sizes are recomputed from ``len`` with the exact
    ``max(1, int(round(fraction * n)))`` expressions of the scan, and
    every mutation rebalances both boundaries (each moves by at most
    one key per operation).  Small-``n`` overlap — where one key falls
    in *both* the new and old sections — is legal here just as in the
    scan: the new-section check wins for counting, while the old
    structures keep the key eligible for eviction.
    """

    def __init__(self, new_fraction: float = 0.3, old_fraction: float = 0.3, a_max: float = 10.0):
        if not 0.0 <= new_fraction < 1.0 or not 0.0 < old_fraction <= 1.0:
            raise ValueError("section fractions must lie in [0, 1)")
        if new_fraction + old_fraction > 1.0:
            raise ValueError("new and old sections may not overlap completely")
        self.new_fraction = new_fraction
        self.old_fraction = old_fraction
        self.a_max = a_max
        self._counts: dict[Hashable, int] = {}
        self._total = 0
        # Recency list: _head <-> LRU ... MRU <-> _tail.
        self._head = object()
        self._tail = object()
        self._nxt: dict = {self._head: self._tail}
        self._prv: dict = {self._tail: self._head}
        # New section (contiguous MRU suffix).
        self._new: set = set()
        self._new_first: Hashable | None = None
        # Old section (contiguous LRU prefix) with frequency buckets.
        self._old: dict[Hashable, int] = {}
        self._old_last: Hashable | None = None
        self._obuckets: dict[int, OrderedDict[Hashable, None]] = {}
        self._omin = 1

    # -- recency list -------------------------------------------------
    def _link_tail(self, key: Hashable) -> None:
        tail = self._tail
        prev = self._prv[tail]
        self._nxt[prev] = key
        self._prv[key] = prev
        self._nxt[key] = tail
        self._prv[tail] = key

    def _unlink(self, key: Hashable) -> None:
        prev = self._prv.pop(key)
        nxt = self._nxt.pop(key)
        self._nxt[prev] = nxt
        self._prv[nxt] = prev

    # -- section boundaries -------------------------------------------
    def _targets(self) -> tuple[int, int]:
        n = len(self._counts)
        if not n:
            return 0, 0
        return (
            max(1, int(round(self.new_fraction * n))),
            max(1, int(round(self.old_fraction * n))),
        )

    def _old_add_last(self, key: Hashable) -> None:
        count = self._counts[key]
        self._old[key] = count
        bucket = self._obuckets.get(count)
        if bucket is None:
            bucket = self._obuckets[count] = OrderedDict()
        bucket[key] = None
        if count < self._omin:
            self._omin = count
        self._old_last = key

    def _old_discard(self, key: Hashable) -> None:
        """Drop ``key`` from the old structures (key must still be linked)."""
        count = self._old.pop(key)
        bucket = self._obuckets[count]
        del bucket[key]
        if not bucket:
            del self._obuckets[count]
        if key == self._old_last:
            prev = self._prv[key]
            self._old_last = prev if prev in self._old else None

    def _old_grow(self) -> bool:
        anchor = self._old_last if self._old_last is not None else self._head
        nxt = self._nxt[anchor]
        if nxt is self._tail:
            return False
        self._old_add_last(nxt)
        return True

    def _new_trim(self, target: int) -> None:
        while len(self._new) > target:
            first = self._new_first
            self._new.remove(first)
            self._new_first = self._nxt[first] if self._new else None

    def _new_grow(self, target: int) -> None:
        while len(self._new) < target:
            anchor = self._new_first if self._new_first is not None else self._tail
            cand = self._prv[anchor]
            if cand is self._head:
                break
            self._new.add(cand)
            self._new_first = cand

    def _rebalance(self) -> None:
        new_target, old_target = self._targets()
        self._new_trim(new_target)
        self._new_grow(new_target)
        while len(self._old) > old_target:
            self._old_discard(self._old_last)
        while len(self._old) < old_target:
            if not self._old_grow():
                break

    # -- policy interface ---------------------------------------------
    def on_insert(self, key: Hashable) -> None:
        if key in self._counts:
            raise KeyError(f"key {key!r} already tracked")
        self._counts[key] = 1
        self._total += 1
        self._link_tail(key)
        self._new.add(key)
        if self._new_first is None:
            self._new_first = key
        self._rebalance()

    def on_access(self, key: Hashable) -> None:
        if key not in self._counts:
            raise KeyError(f"key {key!r} not tracked")
        if key == self._prv[self._tail]:
            # Already MRU — and the MRU key is always in the new
            # section (size >= 1), so the access neither counts nor
            # moves anything.
            return
        if key in self._old:
            self._old_discard(key)
        if key not in self._new:
            # Middle/old hit: counts, exactly like the scan (increment,
            # then the rescale check, then the recency move).
            self._counts[key] += 1
            self._total += 1
            if self._total / len(self._counts) > self.a_max:
                self._rescale()
        elif key == self._new_first:
            self._new_first = self._nxt[key]
        self._unlink(key)
        self._link_tail(key)
        self._new.add(key)
        new_target, old_target = self._targets()
        self._new_trim(new_target)
        while len(self._old) < old_target:
            if not self._old_grow():
                break

    def _rescale(self) -> None:
        counts = self._counts
        for k in counts:
            counts[k] = (counts[k] + 1) // 2
        self._total = sum(counts.values())
        # Re-bucket the old section under the halved counts, walking the
        # recency prefix so entry order (== LRU order) is preserved.
        obuckets: dict[int, OrderedDict[Hashable, None]] = {}
        old = self._old
        remaining = len(old)
        node = self._nxt[self._head]
        while remaining and node is not self._tail:
            if node in old:
                count = counts[node]
                old[node] = count
                bucket = obuckets.get(count)
                if bucket is None:
                    bucket = obuckets[count] = OrderedDict()
                bucket[node] = None
                remaining -= 1
            node = self._nxt[node]
        self._obuckets = obuckets
        self._omin = 1

    def victim(self) -> Hashable:
        if not self._counts:
            raise LookupError("no keys to evict")
        obuckets = self._obuckets
        m = self._omin
        if m not in obuckets:
            # Lazy repair: the cached minimum's bucket emptied.  Buckets
            # below ``_omin`` can never exist (adds lower the cursor
            # eagerly), so when present it *is* the minimum.
            m = min(obuckets)
            self._omin = m
        return next(iter(obuckets[m]))

    def remove(self, key: Hashable) -> None:
        count = self._counts.pop(key)
        self._total -= count
        if key in self._old:
            self._old_discard(key)
        if key in self._new:
            if key == self._new_first:
                nxt = self._nxt[key]
                self._new_first = nxt if nxt is not self._tail else None
            self._new.remove(key)
            if not self._new:
                self._new_first = None
        self._unlink(key)
        self._rebalance()

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts


_POLICIES = {"lru": LRUPolicy, "lfu": LFUPolicy, "fbr": FBRPolicy}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by its lowercase name ('lru', 'lfu', 'fbr')."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
