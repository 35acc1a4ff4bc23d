"""The long-lived multi-tenant front end: admission, dispatch, SLOs.

:class:`TenantServer` is the serving layer proper.  It owns

* the tenant registry (:mod:`repro.serve.tenancy`) and enforces
  admission quotas at submit time,
* the :class:`~repro.serve.queue.FairCommandQueue` (weighted
  round-robin across tenants, strict priority lanes),
* a dispatcher process that marries free backend capacity to the
  fairness policy's next command,
* cooperative cancellation that always returns admission slots, and
* per-tenant SLO rollups streamed into the *existing*
  :class:`repro.obs.slo.SLOTracker` — the serving layer feeds the PR-6
  engine, it does not grow a second one.

Execution is pluggable through a small backend protocol:

* :class:`ModeledBackend` — pure-DES service model (capacity slots,
  per-request :class:`ServiceProfile`).  This is what lets the load
  generator drive *thousands* of tenants in simulated time.
* :class:`SessionBackend` — real commands on a
  :class:`~repro.core.session.ViracochaSession` scheduler: actual
  extraction, DMS traffic, faults and recovery, with first-feedback
  latency taken from the visualization client's packet stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Generator, Iterable

from ..core.messages import CommandRequest, next_request_id
from ..des.kernel import Environment, Event, Interrupt, Process
from ..des.resources import Request, Resource
from .queue import FairCommandQueue
from .tenancy import AdmissionDecision, TenantConfig, TenantState

__all__ = [
    "ModeledBackend",
    "RequestState",
    "ServeHandle",
    "ServiceProfile",
    "SessionBackend",
    "TenantServer",
    "serve_slos",
]


class RequestState:
    """Lifecycle states of a :class:`ServeHandle` (plain constants)."""

    REJECTED = "rejected"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"

    TERMINAL = (REJECTED, DONE, CANCELLED, FAILED)


@dataclass(frozen=True)
class ServiceProfile:
    """Modeled cost of one command for :class:`ModeledBackend`.

    ``first_byte_s`` is when the first partial result reaches the
    client (the latency the 100 ms criterion judges); ``None`` defaults
    to 25% of ``total_s`` — the streaming head start the paper's
    decoupling buys.
    """

    total_s: float
    first_byte_s: float | None = None
    degraded: bool = False

    def __post_init__(self) -> None:
        if self.total_s < 0:
            raise ValueError(f"total_s must be >= 0, got {self.total_s}")
        fb = self.first_byte_s
        if fb is not None and not 0 <= fb <= self.total_s:
            raise ValueError(
                f"first_byte_s must be in [0, total_s], got {fb}"
            )

    @property
    def first_byte(self) -> float:
        return (
            self.first_byte_s if self.first_byte_s is not None
            else 0.25 * self.total_s
        )


@dataclass
class ServeHandle:
    """One submitted command as the serving layer tracks it."""

    request_id: int
    tenant: str
    command: str
    params: dict[str, Any]
    lane: int
    cost_bytes: int = 0
    service: ServiceProfile | None = None
    state: str = RequestState.QUEUED
    reject_reason: str = ""
    cancel_requested: bool = False
    degraded: bool = False
    failure: str = ""
    t_submit: float = 0.0
    t_start: float | None = None
    t_first: float | None = None
    t_done: float | None = None
    #: fires when the handle reaches a terminal state.
    done: Event | None = None
    #: the execute process (interrupt target for cancellation).
    proc: Process | None = None
    #: backend outcome (RunRecord / modeled outcome) when DONE.
    outcome: Any = None

    @property
    def finished(self) -> bool:
        return self.state in RequestState.TERMINAL

    @property
    def queue_wait_s(self) -> float:
        if self.t_start is None:
            return 0.0
        return self.t_start - self.t_submit

    @property
    def latency_s(self) -> float | None:
        """Submit → first feedback; falls back to runtime when opaque."""
        if self.t_first is not None:
            return self.t_first - self.t_submit
        return self.runtime_s

    @property
    def runtime_s(self) -> float | None:
        if self.t_done is None:
            return None
        return self.t_done - self.t_submit


class _ModeledOutcome:
    __slots__ = ("degraded",)

    def __init__(self, degraded: bool = False):
        self.degraded = degraded


class ModeledBackend:
    """Pure-DES execution: ``slots`` capacity, per-request profiles.

    No geometry, no DMS — just seeded service times charged on the
    virtual clock, which is exactly what a 1 000-tenant soak needs to
    stay deterministic and fast.  Requests must carry a
    :class:`ServiceProfile` (the load generator pre-draws them at
    build time, like :meth:`repro.faults.FaultPlan.random`).
    """

    can_interrupt = True

    def __init__(self, env: Environment, slots: int = 4):
        self.env = env
        self.resource = Resource(env, capacity=slots)
        self.slots = slots

    def acquire(self) -> Request:
        return self.resource.request()

    def release(self, slot: Request) -> None:
        self.resource.release(slot)

    def validate(self, command: str, params: dict[str, Any] | None) -> dict[str, Any]:
        """Any command name and params: modeled requests run no command."""
        return dict(params or {})

    def execute(self, handle: ServeHandle) -> Generator[Event, None, Any]:
        profile = handle.service
        if profile is None:
            raise ValueError(
                f"request {handle.request_id} has no ServiceProfile "
                "(required by ModeledBackend)"
            )
        first = profile.first_byte
        yield self.env.timeout(first)
        handle.t_first = self.env.now
        yield self.env.timeout(max(profile.total_s - first, 0.0))
        return _ModeledOutcome(profile.degraded)


class SessionBackend:
    """Real execution on a :class:`~repro.core.session.ViracochaSession`.

    Commands go through the genuine request path: the
    :class:`~repro.core.channels.ClientUplink` charges the client TCP
    link, the scheduler forms a work group, workers extract and stream,
    and the visualization client's packet log provides first-feedback
    latency.  ``slots`` caps commands in flight *at the serving layer*
    (default 1: the fair queue, not the scheduler's internal worker
    pool, decides ordering under contention).
    """

    can_interrupt = False

    def __init__(self, session: Any, group_size: int | None = None,
                 slots: int = 1):
        self.session = session
        self.env = session.env
        self.group_size = group_size or session.n_workers
        self.resource = Resource(self.env, capacity=slots)
        self.slots = slots

    def acquire(self) -> Request:
        return self.resource.request()

    def release(self, slot: Request) -> None:
        self.resource.release(slot)

    def validate(self, command: str, params: dict[str, Any] | None) -> dict[str, Any]:
        """The session's check (:meth:`~repro.core.session.ViracochaSession.validate`)."""
        return self.session.validate(command, params)

    def execute(self, handle: ServeHandle) -> Generator[Event, None, Any]:
        session = self.session
        # ``submit`` validated the params before the handle was made.
        request = CommandRequest(
            next_request_id(), handle.command, handle.params,
            group_size=self.group_size, tenant=handle.tenant,
        )
        record = yield from session.submit(request)
        handle.t_first = session.client.first_data_time_of(request.request_id)
        # The served client keeps no geometry once it is answered.
        session.client.forget(request.request_id)
        return record

    def request_cancel(self, handle: ServeHandle) -> bool:
        """Cooperative cancellation for a *running* command.

        The session backend cannot interrupt the scheduler mid-command
        (``can_interrupt`` is False), but a progressive command carries
        a :class:`~repro.commands.progressive.RefinementControl` token
        in ``params["control"]``; flipping it makes the command stop
        refining at its next check, so the viewer keeps the coarse
        approximation and the slot frees early.  Returns whether a
        token was found and flipped.
        """
        control = handle.params.get("control")
        cancel = getattr(control, "cancel", None)
        if callable(cancel):
            cancel("serve-cancel")
            return True
        return False


def serve_slos(
    criteria: Any = None,
    queue_wait_threshold: float = 0.05,
    queue_wait_target: float = 0.99,
) -> list:
    """The serving layer's stock objectives.

    The two VR interaction SLOs from :func:`repro.obs.slo.default_slos`
    (100 ms first feedback, complete results) plus a queue-admission
    objective: commands must leave the fair queue within
    ``queue_wait_threshold`` seconds for ``queue_wait_target`` of
    requests — the term a single-client session never had to budget.
    """
    from ..obs.slo import SLODefinition, default_slos

    slos = default_slos(criteria)
    slos.append(
        SLODefinition(
            name="queue-admit",
            metric="queue_wait",
            threshold=queue_wait_threshold,
            target=queue_wait_target,
            command_class="*",
        )
    )
    return slos


class TenantServer:
    """Async session multiplexing over one shared cluster backend."""

    def __init__(
        self,
        backend: Any,
        slos: Iterable | None = None,
        tracker: Any = None,
    ):
        self.backend = backend
        self.env: Environment = backend.env
        self.queue = FairCommandQueue(self.env)
        self.tenants: dict[str, TenantState] = {}
        if tracker is None:
            from ..obs.slo import SLOTracker

            tracker = SLOTracker(list(slos) if slos is not None else serve_slos())
        #: the shared repro.obs.slo engine; per-tenant rollups come from
        #: ``tracker.status("tenant")``.
        self.tracker = tracker
        self.handles: list[ServeHandle] = []
        self._next_id = 1
        self._open = 0  #: admitted but unfinished
        self._drain_waiters: list[Event] = []
        self._dispatcher: Process | None = None
        self._stopped = False

    # ---------------------------------------------------------- tenants
    def register(self, config: TenantConfig | str, **kwargs: Any) -> TenantState:
        """Register a tenant (by config or ``name`` plus keywords)."""
        if isinstance(config, str):
            config = TenantConfig(name=config, **kwargs)
        if config.name in self.tenants:
            raise ValueError(f"tenant {config.name!r} already registered")
        state = TenantState(config)
        self.tenants[config.name] = state
        self.queue.add_tenant(config.name, config.weight)
        return state

    def tenant(self, name: str) -> TenantState:
        return self.tenants[name]

    # ----------------------------------------------------------- submit
    def submit(
        self,
        tenant: str,
        command: str,
        params: dict[str, Any] | None = None,
        cost_bytes: int = 0,
        service: ServiceProfile | None = None,
        lane: int | None = None,
    ) -> ServeHandle:
        """Admission-check and enqueue one command; never blocks.

        Returns a :class:`ServeHandle` in state ``queued`` or
        ``rejected`` — rejected handles are terminal immediately and
        hold no admission slot.  Params the backend's ``validate``
        refuses raise (``ParamError``; ``KeyError`` for an unknown
        command) before any handle, id or slot is taken.
        """
        params = self.backend.validate(command, params)
        state = self.tenants.get(tenant)
        handle = ServeHandle(
            request_id=self._next_id,
            tenant=tenant,
            command=command,
            params=params,
            lane=0,
            cost_bytes=cost_bytes,
            service=service,
            t_submit=self.env.now,
            done=Event(self.env),
        )
        self._next_id += 1
        self.handles.append(handle)
        if state is None:
            decision = AdmissionDecision(False, "unknown-tenant")
        else:
            state.submitted += 1
            decision = state.check(cost_bytes)
        if not decision.admitted:
            handle.state = RequestState.REJECTED
            handle.reject_reason = decision.reason
            handle.t_done = self.env.now
            if state is not None:
                state.reject(decision.reason)
            handle.done.succeed(handle)
            return handle
        handle.lane = state.config.lane if lane is None else lane
        state.admit(cost_bytes)
        self._open += 1
        self.start()
        self.queue.put(tenant, handle.lane, handle)
        return handle

    # ----------------------------------------------------------- cancel
    def cancel(self, handle: ServeHandle) -> bool:
        """Cooperatively cancel; the admission slot is always returned.

        A still-queued handle is removed immediately.  A dispatched or
        running handle gets ``cancel_requested`` set; interruptible
        backends are interrupted, others run their current command to
        completion (the slot is released either way through the one
        completion path).  Terminal handles return ``False``.
        """
        if handle.finished:
            return False
        if (handle.state == RequestState.QUEUED
                and not FairCommandQueue.popped(handle)):
            self.queue.discard(handle.tenant, handle.lane, handle)
            state = self.tenants[handle.tenant]
            state.queued -= 1
            state.cancelled += 1
            self._finish(handle, RequestState.CANCELLED)
            return True
        handle.cancel_requested = True
        if (self.backend.can_interrupt and handle.proc is not None
                and handle.proc.is_alive):
            handle.proc.interrupt("cancelled")
        else:
            # Non-interruptible backends may still cancel cooperatively
            # (a progressive command's RefinementControl token).
            request_cancel = getattr(self.backend, "request_cancel", None)
            if callable(request_cancel):
                request_cancel(handle)
        return True

    # --------------------------------------------------------- lifecycle
    def start(self) -> "TenantServer":
        """Spawn the dispatcher (idempotent)."""
        if self._dispatcher is None or not self._dispatcher.is_alive:
            if self._stopped:
                raise RuntimeError("server has been shut down")
            self._dispatcher = self.env.process(
                self._dispatch(), name="serve-dispatch"
            )
        return self

    def shutdown(self) -> None:
        """Stop the dispatcher; queued work stays queued."""
        self._stopped = True
        if self._dispatcher is not None and self._dispatcher.is_alive:
            self._dispatcher.interrupt("shutdown")

    def drained(self) -> Event:
        """Event firing when no admitted command remains unfinished."""
        evt = Event(self.env)
        if self._open == 0:
            evt.succeed(self)
        else:
            self._drain_waiters.append(evt)
        return evt

    # --------------------------------------------------------- dispatch
    def _dispatch(self) -> Generator[Event, None, None]:
        """Process body: free slot first, then the WRR-best command.

        Acquiring capacity *before* consulting the queue means the
        fairness decision is made at the moment a slot frees up — a
        high-priority arrival can still win the slot over earlier
        low-priority backlog.
        """
        while True:
            slot = self.backend.acquire()
            try:
                yield slot
                handle = yield self.queue.get()
            except Interrupt:
                self.backend.release(slot)
                return
            # Accounting happens here, synchronously with the pop, so a
            # cancel landing later in this timestep sees state=running.
            state = self.tenants[handle.tenant]
            handle.state = RequestState.RUNNING
            handle.t_start = self.env.now
            state.queued -= 1
            state.running += 1
            wait = handle.queue_wait_s
            state.max_queue_wait_s = max(state.max_queue_wait_s, wait)
            handle.proc = self.env.process(
                self._run_one(handle, slot),
                name=f"serve-{handle.tenant}-{handle.request_id}",
            )

    def _run_one(self, handle: ServeHandle, slot: Request):
        """Process body: one command end to end, slot released exactly once."""
        state = self.tenants[handle.tenant]
        final = RequestState.DONE
        try:
            if handle.cancel_requested:
                final = RequestState.CANCELLED
            else:
                try:
                    handle.outcome = yield from self.backend.execute(handle)
                except Interrupt:
                    final = RequestState.CANCELLED
                except Exception as exc:
                    final = RequestState.FAILED
                    handle.failure = repr(exc)
        finally:
            state.running -= 1
            self.backend.release(slot)
            if final == RequestState.CANCELLED:
                state.cancelled += 1
            elif final == RequestState.FAILED:
                state.failed += 1
            self._finish(handle, final)
        if final == RequestState.DONE:
            degraded = bool(getattr(handle.outcome, "degraded", False))
            handle.degraded = degraded
            state.completed += 1
            if degraded:
                state.degraded += 1
            self.tracker.observe(
                handle.command,
                latency=handle.latency_s,
                runtime=handle.runtime_s,
                degraded=degraded,
                tenant=handle.tenant,
                queue_wait=handle.queue_wait_s,
            )

    def _finish(self, handle: ServeHandle, final: str) -> None:
        """Terminal-state bookkeeping shared by every exit path."""
        handle.state = final
        handle.t_done = self.env.now
        state = self.tenants.get(handle.tenant)
        if state is not None:
            state.release(handle.cost_bytes)
        self._open -= 1
        if handle.done is not None and not handle.done.triggered:
            handle.done.succeed(handle)
        if self._open == 0 and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for evt in waiters:
                if not evt.triggered:
                    evt.succeed(self)

    # -------------------------------------------------------- reporting
    def fingerprint(self) -> str:
        """Deterministic digest of every handle's observable lifecycle.

        Request ids are server-local and sequential, timestamps are
        simulated, so two replays of the same workload at the same seed
        must be byte-identical — the soak suite's replay pin.
        """
        h = sha256()
        for hd in self.handles:
            h.update(
                f"{hd.request_id}|{hd.tenant}|{hd.command}|{hd.lane}|"
                f"{hd.state}|{hd.reject_reason}|{hd.cost_bytes}|"
                f"{hd.t_submit!r}|{hd.t_start!r}|{hd.t_first!r}|"
                f"{hd.t_done!r}|{hd.degraded}\n".encode()
            )
        return h.hexdigest()

    def publish_metrics(self, registry: Any) -> None:
        """Per-tenant serving counters plus the SLO engine's gauges."""
        for name, state in sorted(self.tenants.items()):
            labels = {"tenant": name}
            registry.counter(
                "viracocha_serve_submitted_total", labels,
                help="commands submitted per tenant",
            ).set(state.submitted)
            registry.counter(
                "viracocha_serve_rejected_total", labels,
                help="admission rejections per tenant",
            ).set(state.rejected)
            registry.counter(
                "viracocha_serve_completed_total", labels,
                help="completed commands per tenant",
            ).set(state.completed)
            registry.counter(
                "viracocha_serve_cancelled_total", labels,
                help="cancelled commands per tenant",
            ).set(state.cancelled)
            registry.gauge(
                "viracocha_serve_in_flight", labels,
                help="admitted-but-unfinished commands per tenant",
            ).set(state.in_flight)
        registry.gauge(
            "viracocha_serve_queue_depth",
            help="live items across all lanes of the fair queue",
        ).set(len(self.queue))
        self.tracker.publish_metrics(registry)
