"""Binds a :class:`~repro.faults.plan.FaultPlan` to a live session.

Every episode becomes a calendar callback (``Environment.call_at``) so
faults fire through the DES clock in deterministic event order — never
from wall-clock timers.  Firing an episode

* flips the targeted component's fault state (``Worker.crash``,
  ``Link.degrade``, per-message loss hooks, ``DataManagerServer.stall``),
* emits a zero-duration ``fault-*`` span through the scheduler, and
* bumps ``viracocha_faults_injected_total{kind=...}``,

so chaos runs are fully observable through the same repro.obs surface
as normal runs.
"""

from __future__ import annotations

import random
from typing import Any

from ..core.scheduler import RecoveryPolicy
from .plan import FaultEvent, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a plan's episodes onto one :class:`ViracochaSession`.

    The session's scheduler gets a default :class:`RecoveryPolicy`
    installed when it has none — without supervision an injected crash
    would surface as an unconsumed process failure and abort the whole
    simulation instead of degrading the one command.

    Per-message loss draws come from a private ``random.Random`` derived
    from the plan seed and are consumed in DES event order, so the same
    seed replays byte-identically.
    """

    def __init__(self, plan: FaultPlan, session: Any):
        self.plan = plan
        self.session = session
        self.env = session.env
        self.cluster = session.cluster
        self.scheduler = session.scheduler
        self.server = session.scheduler.server
        self.metrics = getattr(session, "metrics", None)
        #: episodes fired so far, by kind (recoveries count separately).
        self.injected: dict[str, int] = {}
        #: per-message loss RNG — plan-seed derived, DES-order consumed.
        self._loss_rng = random.Random((plan.seed << 1) ^ 0x9E3779B9)
        #: active loss episodes per link name: list of (start, end, prob).
        self._loss_episodes: dict[str, list[tuple[float, float, float]]] = {}
        self._installed = False

    # ------------------------------------------------------------ install
    def install(self) -> "FaultInjector":
        """Schedule every episode; idempotent per injector instance."""
        if self._installed:
            return self
        self._installed = True
        if self.scheduler.recovery is None:
            self.scheduler.recovery = RecoveryPolicy()
        for event in sorted(
            self.plan.events, key=lambda e: (e.time, e.kind, str(e.target))
        ):
            self._schedule(event)
        return self

    def _schedule(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "worker-crash":
            worker = self.scheduler.workers[int(event.target)]
            self.env.call_at(event.time, lambda w=worker, e=event: self._fire_crash(w, e))
            if event.duration > 0:
                self.env.call_at(
                    event.end, lambda w=worker, e=event: self._fire_recover(w, e)
                )
        elif kind == "link-degrade":
            link = self.cluster.link(str(event.target))
            self.env.call_at(
                event.time, lambda l=link, e=event: self._fire_degrade(l, e)
            )
            self.env.call_at(
                event.end, lambda l=link, e=event: self._fire_restore(l, e)
            )
        elif kind == "link-loss":
            link = self.cluster.link(str(event.target))
            name = link.name
            self._loss_episodes.setdefault(name, []).append(
                (event.time, event.end, event.magnitude)
            )
            if link.fault_hook is None:
                link.fault_hook = self._make_loss_hook(link)
            self.env.call_at(
                event.time,
                lambda l=link, e=event: self._mark(
                    "fault-link", l, mode="loss", loss_prob=e.magnitude,
                    until=e.end,
                ),
            )
            self.env.call_at(
                event.end,
                lambda l=link, e=event: self._mark(
                    "fault-link-restore", l, mode="loss"
                ),
            )
        elif kind == "server-stall":
            self.env.call_at(event.time, lambda e=event: self._fire_stall(e))
        else:  # pragma: no cover - FaultEvent already validates kinds
            raise ValueError(f"unknown fault kind {kind!r}")

    # -------------------------------------------------------------- fires
    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.counter(
                "viracocha_faults_injected_total", {"kind": kind},
                help="fault episodes fired by the injector",
            ).inc()

    def _fire_crash(self, worker: Any, event: FaultEvent) -> None:
        self._count("worker-crash")
        self.scheduler.fault_event(
            "fault-crash", worker.node.node_id,
            worker=worker.worker_id, downtime=event.duration,
        )
        worker.crash(reason="injected")

    def _fire_recover(self, worker: Any, event: FaultEvent) -> None:
        self._count("worker-recover")
        self.scheduler.fault_event(
            "fault-recover", worker.node.node_id, worker=worker.worker_id,
        )
        worker.recover()

    def _fire_degrade(self, link: Any, event: FaultEvent) -> None:
        # Overlapping degrade episodes on one link do not compose: the
        # latest factor wins and the earliest restore clears it.
        self._count("link-degrade")
        self.scheduler.fault_event(
            "fault-link", self.cluster.scheduler_node.node_id,
            link=link.name, factor=event.magnitude, until=event.end,
        )
        link.degrade(event.magnitude)

    def _fire_restore(self, link: Any, event: FaultEvent) -> None:
        self._count("link-restore")
        self.scheduler.fault_event(
            "fault-link-restore", self.cluster.scheduler_node.node_id,
            link=link.name,
        )
        link.restore()

    def _mark(self, span_kind: str, link: Any, **detail: Any) -> None:
        kind = "link-loss" if span_kind == "fault-link" else "link-loss-end"
        self._count(kind)
        self.scheduler.fault_event(
            span_kind, self.cluster.scheduler_node.node_id,
            link=link.name, **detail,
        )

    def _fire_stall(self, event: FaultEvent) -> None:
        self._count("server-stall")
        self.scheduler.fault_event(
            "fault-stall", self.cluster.scheduler_node.node_id,
            duration=event.duration,
        )
        self.server.stall(self.env.now, event.duration)

    # --------------------------------------------------------------- loss
    def _make_loss_hook(self, link: Any):
        episodes = self._loss_episodes[link.name]

        def hook(nbytes: int) -> float:
            now = self.env.now
            prob = max(
                (p for (start, end, p) in episodes if start <= now < end),
                default=0.0,
            )
            if prob <= 0.0 or self._loss_rng.random() >= prob:
                return 0.0
            # One retransmission: the message is resent in full after
            # another protocol round trip.  Loss never drops data for
            # good — messages are delayed, not destroyed, so every
            # command still terminates.
            return link.latency + nbytes / link.effective_bandwidth

        return hook
