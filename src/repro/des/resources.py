"""Shared-resource primitives for the DES kernel.

Implements the minimum set of coordination objects the cluster model
needs: a counted :class:`Resource` (CPU slots, disk channels), a
:class:`Store` (unbounded FIFO message queues) and a
:class:`PriorityStore` (scheduler run queues).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any

from .kernel import Environment, Event

__all__ = ["Request", "Resource", "Store", "PriorityStore"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...  # holding the slot
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with priority queueing (FIFO within a priority).

    Lower ``priority`` values are served first; the default ``0`` for
    every request yields plain FIFO behavior.  Background work (e.g.
    speculative prefetch I/O) requests with a higher value so it only
    consumes otherwise-idle capacity.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: list[tuple[int, int, Request]] = []
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        return sum(1 for (_p, _s, r) in self._waiting if not r.triggered)

    def request(self, priority: int = 0) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity and not self._waiting:
            self._users.add(req)
            req.succeed()
        else:
            heappush(self._waiting, (priority, self._seq, req))
            self._seq += 1
            self._grant_next()
        return req

    def grab(self) -> Request:
        """Synchronously claim a free slot (uncontended fast path).

        The caller must have checked ``count < capacity`` with an empty
        wait queue.  The returned request is already triggered *and*
        processed: no grant event enters the calendar, so the acquiring
        process never suspends.  :meth:`release` works on it as usual.
        :class:`~repro.des.network.Link` uses this to coalesce the
        per-packet request/grant event pair on an idle wire.
        """
        req = Request(self)
        req._triggered = True
        req._ok = True
        req.callbacks = None
        self._users.add(req)
        return req

    def release(self, req: Request) -> None:
        if req in self._users:
            self._users.discard(req)
            self._grant_next()
        elif not req.triggered:
            # Cancelling a queued (never-granted) request is legal.
            self.cancel(req)

    def cancel(self, req: Request) -> None:
        """Remove a queued request without granting it."""
        before = len(self._waiting)
        self._waiting = [(p, s, r) for (p, s, r) in self._waiting if r is not req]
        if len(self._waiting) != before:
            heapify(self._waiting)

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            _prio, _seq, nxt = heappop(self._waiting)
            if nxt.triggered:  # already granted or cancelled
                continue
            self._users.add(nxt)
            nxt.succeed()


class Store:
    """Unbounded FIFO store of Python objects (message queue)."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item (never blocks)."""
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that yields the next item."""
        evt = Event(self.env)
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt


class PriorityStore(Store):
    """A store whose :meth:`get` yields the smallest item first.

    Items must be comparable; ``(priority, seq, payload)`` tuples are the
    conventional shape.  Ties are impossible because callers include a
    sequence number.
    """

    def __init__(self, env: Environment):
        super().__init__(env)
        self._heap: list[Any] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(sorted(self._heap))

    def put(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            if self._heap and self._heap[0] < item:
                heappush(self._heap, item)
                getter.succeed(heappop(self._heap))
            else:
                getter.succeed(item)
            return
        heappush(self._heap, item)

    def get(self) -> Event:
        evt = Event(self.env)
        if self._heap:
            evt.succeed(heappop(self._heap))
        else:
            self._getters.append(evt)
        return evt
