"""Fault plans: deterministic, seeded schedules of cluster faults.

A :class:`FaultPlan` is a *static* list of :class:`FaultEvent` episodes
built ahead of the simulation — worker crashes, link degradation and
loss, DMS-server stalls.  All randomness is drawn from
``random.Random(seed)`` at plan-build time, never from wall-clock or OS
entropy during the run, so the same seed always yields the same
schedule and (through the DES clock) the same simulated execution.

The plan itself knows nothing about a live cluster; the
:class:`~repro.faults.injector.FaultInjector` binds it to a session.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["FaultEvent", "FaultPlan"]

#: episode kinds a plan may contain.
FAULT_KINDS = ("worker-crash", "link-degrade", "link-loss", "server-stall")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault episode.

    ``target`` is a worker id for crashes, a link name (see
    :meth:`repro.des.cluster.SimCluster.links`) for link faults, and
    ignored for server stalls.  ``magnitude`` is kind-specific: the
    bandwidth factor kept during ``link-degrade`` (0 < f <= 1) and the
    per-message loss probability during ``link-loss``.
    """

    time: float
    kind: str
    target: str | int | None = None
    duration: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.duration < 0:
            raise ValueError(f"fault duration must be >= 0, got {self.duration}")

    @property
    def end(self) -> float:
        return self.time + self.duration


@dataclass
class FaultPlan:
    """An ordered, seeded schedule of fault episodes.

    Builder methods append episodes and return ``self`` for chaining::

        plan = (FaultPlan(seed=7)
                .crash_worker(0.002, worker=1, downtime=0.01)
                .stall_server(0.004, duration=0.005))

    ``seed`` only matters for randomness consumed *during* the run —
    the per-message loss draws of ``link-loss`` episodes; the injector
    derives its message RNG from it.  :meth:`random` builds a whole
    schedule from the seed instead.
    """

    seed: int = 0
    events: list[FaultEvent] = field(default_factory=list)

    # ----------------------------------------------------------- builders
    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def crash_worker(
        self, time: float, worker: int, downtime: float = 0.0
    ) -> "FaultPlan":
        """Kill ``worker`` at ``time``; recover after ``downtime`` (0 = never)."""
        return self.add(
            FaultEvent(time=time, kind="worker-crash", target=worker,
                       duration=downtime)
        )

    def degrade_link(
        self, time: float, link: str, factor: float, duration: float
    ) -> "FaultPlan":
        """Run ``link`` at ``factor`` of its bandwidth for ``duration``."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degrade factor must be in (0, 1], got {factor}")
        return self.add(
            FaultEvent(time=time, kind="link-degrade", target=link,
                       duration=duration, magnitude=factor)
        )

    def lossy_link(
        self, time: float, link: str, loss_prob: float, duration: float
    ) -> "FaultPlan":
        """Drop/retransmit messages on ``link`` with ``loss_prob`` each."""
        if not 0.0 <= loss_prob <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {loss_prob}")
        return self.add(
            FaultEvent(time=time, kind="link-loss", target=link,
                       duration=duration, magnitude=loss_prob)
        )

    def stall_server(self, time: float, duration: float) -> "FaultPlan":
        """Freeze the DMS server's strategy answers for ``duration``."""
        return self.add(
            FaultEvent(time=time, kind="server-stall", duration=duration)
        )

    # ------------------------------------------------------------- random
    @classmethod
    def random(
        cls,
        seed: int,
        horizon: float,
        n_workers: int,
        n_events: int = 4,
        crash_downtime: float | None = None,
        max_episode: float | None = None,
        links: tuple[str, ...] = ("fileserver", "fabric"),
    ) -> "FaultPlan":
        """Draw a whole schedule from ``seed`` (build-time RNG only).

        ``horizon`` bounds episode start times — pick roughly the
        fault-free runtime of the command under test so episodes land
        while work is in flight.  Episode lengths default to fractions
        of the horizon (``crash_downtime`` 25%, ``max_episode`` 20%) so
        faults matter at any simulated time scale.  At most one crash
        per distinct worker is drawn, so a group always keeps at least
        one survivor when ``n_workers > 1``.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if crash_downtime is None:
            crash_downtime = 0.25 * horizon
        if max_episode is None:
            max_episode = 0.20 * horizon
        rng = random.Random(seed)
        plan = cls(seed=seed)
        crashed: set[int] = set()
        for _ in range(n_events):
            t = rng.uniform(0.0, horizon)
            duration = rng.uniform(0.1 * max_episode, max_episode)
            roll = rng.random()
            if roll < 0.35 and len(crashed) < max(n_workers - 1, 1):
                worker = rng.randrange(n_workers)
                if worker in crashed:
                    continue  # keep the draw sequence seed-stable
                crashed.add(worker)
                plan.crash_worker(t, worker=worker, downtime=crash_downtime)
            elif roll < 0.60:
                plan.degrade_link(
                    t, rng.choice(links), factor=rng.uniform(0.05, 0.5),
                    duration=duration,
                )
            elif roll < 0.85:
                plan.lossy_link(
                    t, rng.choice(links), loss_prob=rng.uniform(0.05, 0.4),
                    duration=duration,
                )
            else:
                plan.stall_server(t, duration=duration)
        plan.events.sort(key=lambda e: (e.time, e.kind, str(e.target)))
        return plan

    # -------------------------------------------------------------- query
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        """One line per episode — paste-ready for a bug report."""
        lines = [f"FaultPlan(seed={self.seed}, {len(self.events)} events)"]
        for e in sorted(self.events, key=lambda e: e.time):
            lines.append(
                f"  t={e.time:.6f} {e.kind} target={e.target!r} "
                f"duration={e.duration:.6f} magnitude={e.magnitude:.4f}"
            )
        return "\n".join(lines)
