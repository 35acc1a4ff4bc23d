"""The fair command queue: weighted round-robin with priority lanes.

Dispatch order is the serving layer's fairness policy, so it is fully
deterministic and very boring on purpose:

* **lanes** are strict priorities — a queued interactive command always
  dispatches before any queued normal command, which always dispatches
  before background work (the same idea as the DMS giving prefetch I/O
  a lower :class:`~repro.des.resources.Resource` priority);
* **within a lane** tenants are served weighted round-robin: each
  *round*, a tenant with backlog receives up to ``weight`` consecutive
  dispatches; the rotation order is tenant registration order, and a
  round ends when every backlogged tenant has exhausted its credit.

The WRR invariant the property suite pins: while a tenant stays
backlogged, at most ``sum(weights of concurrently backlogged tenants)``
dispatches separate two of its consecutive dispatches — no starvation
within a lane, with service share proportional to weight.

Items are arbitrary objects (the server queues
:class:`~repro.serve.server.ServeHandle`); :meth:`discard` supports
O(1) cancellation of queued items via lazy tombstoning.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..des.kernel import Environment, Event
from .tenancy import N_LANES

__all__ = ["FairCommandQueue"]

#: attribute stamped on discarded items (lazy tombstone).
_DEAD = "_fairq_dead"
#: attribute stamped on items the moment they are popped.  A popped
#: item may not have started executing yet (the dispatcher process gets
#: its first step later in the same timestep); the stamp lets the
#: server distinguish "still cancellable in-queue" from "already
#: dispatched" without a race.
_POPPED = "_fairq_popped"


class _Lane:
    """One priority lane: per-tenant FIFOs under weighted round-robin."""

    __slots__ = ("queues", "order", "weight", "credit", "cursor", "live",
                 "live_by")

    def __init__(self) -> None:
        self.queues: dict[str, deque] = {}
        self.order: list[str] = []
        self.weight: dict[str, int] = {}
        self.credit: dict[str, int] = {}
        self.cursor = 0
        self.live = 0
        self.live_by: dict[str, int] = {}

    def add_tenant(self, name: str, weight: int) -> None:
        if name in self.queues:
            return
        self.queues[name] = deque()
        self.order.append(name)
        self.weight[name] = weight
        self.credit[name] = weight
        self.live_by[name] = 0

    def push(self, name: str, item: Any) -> None:
        self.queues[name].append(item)
        self.live_by[name] += 1
        self.live += 1

    def discard_one(self, name: str) -> None:
        self.live_by[name] -= 1
        self.live -= 1

    def pop(self) -> Any:
        """The WRR-next live item; ``None`` when the lane is empty."""
        if self.live == 0:
            return None
        order, queues = self.order, self.queues
        credit, live_by = self.credit, self.live_by
        n = len(order)
        scanned = 0
        while True:
            if scanned >= n:
                # Full rotation with no credit left anywhere: new round.
                weight = self.weight
                for t in order:
                    credit[t] = weight[t]
                scanned = 0
            t = order[self.cursor]
            q = queues[t]
            # Purge tombstoned items at the head (lazy cancellation).
            while q and getattr(q[0], _DEAD, False):
                q.popleft()
            if live_by[t] and credit[t] > 0:
                item = q.popleft()
                live_by[t] -= 1
                self.live -= 1
                credit[t] -= 1
                if credit[t] == 0 or not live_by[t]:
                    self.cursor = (self.cursor + 1) % n
                return item
            self.cursor = (self.cursor + 1) % n
            scanned += 1


class FairCommandQueue:
    """Multi-lane weighted-fair queue with event-based consumption.

    :meth:`get` returns a DES :class:`Event` that fires with the next
    item the fairness policy selects — immediately if backlog exists,
    else when the next :meth:`put` arrives.  The *selection happens at
    fire time*, so a dispatcher that waits for a free worker slot
    first, then calls :meth:`get`, always receives the globally best
    queued command at the moment capacity frees up.
    """

    def __init__(self, env: Environment, n_lanes: int = N_LANES):
        self.env = env
        self._lanes = [_Lane() for _ in range(n_lanes)]
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return sum(lane.live for lane in self._lanes)

    def add_tenant(self, name: str, weight: int = 1) -> None:
        """Register ``name`` in every lane's rotation (idempotent)."""
        for lane in self._lanes:
            lane.add_tenant(name, weight)

    # ------------------------------------------------------------ put/get
    def put(self, tenant: str, lane: int, item: Any) -> None:
        """Enqueue ``item`` for ``tenant`` in ``lane``."""
        self._lanes[lane].push(tenant, item)
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            nxt = self._pop()
            if nxt is None:  # pragma: no cover - defensive
                self._getters.appendleft(getter)
            else:
                getter.succeed(nxt)
            return

    def get(self) -> Event:
        """An event yielding the next item under the fairness policy."""
        evt = Event(self.env)
        item = self._pop()
        if item is not None:
            evt.succeed(item)
        else:
            self._getters.append(evt)
        return evt

    def discard(self, tenant: str, lane: int, item: Any) -> None:
        """Cancel a queued item in O(1) (tombstone; purged on pop)."""
        if getattr(item, _DEAD, False):
            return
        setattr(item, _DEAD, True)
        self._lanes[lane].discard_one(tenant)

    # ------------------------------------------------------------ helpers
    @staticmethod
    def popped(item: Any) -> bool:
        """Has ``item`` already left the queue?"""
        return getattr(item, _POPPED, False)

    def _pop(self) -> Any:
        for lane in self._lanes:
            if lane.live:
                item = lane.pop()
                setattr(item, _POPPED, True)
                return item
        return None
