"""Network links with bandwidth and latency for the simulated cluster.

A :class:`Link` is a serialized channel: concurrent transfers queue and
each occupies the wire for ``nbytes / bandwidth`` after a fixed
per-message ``latency``.  This is intentionally simple — it is exactly
enough to reproduce the effect the paper reports at 16 workers, where
many workers "literally firing data at the visualization system"
saturate the client connection and communication overhead exceeds the
parallelization profit.
"""

from __future__ import annotations

from typing import Generator

from .kernel import AnyOf, Environment, Event
from .resources import Resource

__all__ = ["Link", "TransferToken"]


class TransferToken:
    """Escalation handle for a background transfer.

    A speculative (prefetch) transfer queues at low priority; if a
    demand consumer starts waiting on its result, calling
    :meth:`boost` re-queues the pending wire request at demand
    priority, avoiding priority inversion.  Boosting a transfer that
    already holds the wire (or already finished) is a no-op.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._event = env.event()

    def boost(self) -> None:
        if not self._event.triggered:
            self._event.succeed()


class Link:
    """A point-to-point (or shared-medium) serialized network link.

    Parameters
    ----------
    bandwidth:
        Sustained throughput in bytes per simulated second.
    latency:
        Fixed per-message overhead in simulated seconds (protocol and
        propagation cost; the paper's MPI vs TCP/IP distinction lives
        here).
    streams:
        Number of transfers that may occupy the wire concurrently; each
        concurrent stream gets the full ``bandwidth`` (a simplification
        used only where the paper's setup implies independent paths,
        e.g. node-local disks).
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "link",
        streams: int = 1,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._wire = Resource(env, capacity=streams)
        #: bandwidth multiplier in (0, 1]; fault episodes lower it.
        self._degradation = 1.0
        #: optional fault hook ``fn(nbytes) -> extra_delay_seconds``;
        #: installed by :mod:`repro.faults` during lossy-link episodes.
        self.fault_hook = None

    # ----------------------------------------------------- fault hooks
    @property
    def effective_bandwidth(self) -> float:
        """Current throughput after any injected degradation."""
        return self.bandwidth * self._degradation

    def degrade(self, factor: float) -> None:
        """Throttle the link to ``factor`` of nominal bandwidth.

        Models a slow-disk / congested-WAN episode; ``factor`` is
        clamped away from zero so a degraded link still drains and the
        simulation always terminates.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degradation factor must be in (0, 1], got {factor}")
        self._degradation = max(factor, 1e-3)

    def restore(self) -> None:
        """End a degradation episode (back to nominal bandwidth)."""
        self._degradation = 1.0

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded duration of a transfer of ``nbytes`` right now."""
        return self.latency + nbytes / self.effective_bandwidth

    def transfer(
        self, nbytes: int, priority: int = 0, token: TransferToken | None = None
    ) -> Generator[Event, None, None]:
        """Process body: occupy the wire for one message of ``nbytes``.

        ``priority > 0`` marks background traffic (speculative prefetch
        reads) that must never delay queued demand transfers.  A
        ``token`` lets a later demand consumer :meth:`~TransferToken.boost`
        this transfer back to demand priority while it still queues.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        wire = self._wire
        if not wire._waiting and len(wire._users) < wire.capacity:
            # Uncontended fast path: the wire is idle and nobody queues,
            # so the request would be granted at this instant anyway.
            # Claim the slot synchronously and charge the one timeout
            # that models the occupancy — the request/grant event pair
            # per packet is coalesced away while the packet's arrival
            # timestamp (now + duration) stays identical.
            req = wire.grab()
            try:
                duration = self.transfer_time(nbytes)
                if self.fault_hook is not None:
                    extra = float(self.fault_hook(nbytes))
                    if extra > 0.0:
                        duration += extra
                yield self.env.timeout(duration)
            finally:
                wire.release(req)
            return
        req = self._wire.request(priority=priority)
        # The wire slot is released on every exit path, including an
        # Interrupt thrown while queued (worker crash / assignment
        # timeout): a leaked slot would wedge every later transfer.
        try:
            if token is not None and not req.triggered:
                escalated = yield AnyOf(self.env, [req, token._event])
                if not req.triggered:
                    # Boost: abandon the queued slot, re-request at demand
                    # priority, and wait normally.
                    self._wire.cancel(req)
                    req = self._wire.request(priority=0)
            if not req.processed:
                yield req
            duration = self.transfer_time(nbytes)
            if self.fault_hook is not None:
                extra = float(self.fault_hook(nbytes))
                if extra > 0.0:
                    duration += extra
            yield self.env.timeout(duration)
        finally:
            self._wire.release(req)
