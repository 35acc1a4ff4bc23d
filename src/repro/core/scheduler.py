"""Layer 2: the scheduler.

The scheduler lives on node 0 of the cluster, receives command requests
from the visualization client over TCP, forms a work group, distributes
assignments over the message-passing fabric, and coordinates result
collection: either the master worker gathers partial results and sends
one merged package (the standard path of §3), or — with streaming —
workers transmit directly and the scheduler only signals completion.

One group runner serves both schedules: the command's work units are
dealt (one share per worker, or tasks drained off a shared ticket
sequence), each worker drains what it is dealt, and payloads merge in
canonical unit order.  ``failed_shares`` and the recovery counters
speak of those units: shares under a static schedule, tasks under a
dynamic one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator

from ..des.cluster import SimCluster
from ..des.kernel import AllOf, AnyOf, Environment, Event, Interrupt
from ..dms.prefetch import BlockMarkovPrefetcher, SequenceOrder, make_prefetcher
from ..dms.proxy import DataProxy, DMSConfig
from ..dms.server import DataManagerServer
from ..dms.source import BlockSource
from .channels import Mailbox, SimMPIChannel, SimTCPChannel
from .commands import Command, CommandContext, CommandRegistry, is_dynamic, lpt_order
from .costs import CostModel, DEFAULT_COSTS
from .messages import ResultPacket, WorkAssignment, WorkerDone
from .worker import Worker, WorkerShare, WorkerUnavailable

__all__ = ["RecoveryPolicy", "RunRecord", "Scheduler", "ShareOutcome"]

#: Run records the scheduler keeps.  Each holds its command's merged
#: geometry, so an unbounded list grows with every request; readers look
#: at most two records back (a cold run and the warm run after it).
HISTORY_LEN = 2

@dataclass(frozen=True)
class RecoveryPolicy:
    """How the scheduler reacts to worker failures and stalls.

    With a policy installed, every work unit (a static share or a
    dynamic task) runs under a supervisor that retries crashed or
    timed-out attempts (backoff in *simulated* time) and reassigns a
    dead worker's unit to a surviving group member; a unit that
    exhausts its attempts is listed in ``RunRecord.failed_shares``.
    ``None`` (the default on :class:`Scheduler`) keeps the fault-free
    fast path: a worker failure propagates and fails the command.
    """

    #: interrupt an attempt running longer than this many simulated
    #: seconds (None disables assignment timeouts).
    assignment_timeout: float | None = None
    #: additional attempts after the first one.
    max_retries: int = 2
    #: backoff before retry k is ``retry_backoff * backoff_factor**(k-1)``.
    retry_backoff: float = 0.05
    backoff_factor: float = 2.0
    #: move a dead worker's unit to the lowest-id surviving group
    #: member; False pins units to the worker that claimed them.
    reassign: bool = True


@dataclass
class ShareOutcome:
    """What the runner concluded about one work unit of a command."""

    index: int  #: canonical unit index (share or task)
    share: WorkerShare | None  #: None when every attempt failed
    executor: Worker | None  #: worker that produced ``share``
    attempts: int = 1
    reassignments: int = 0
    reason: str = "ok"  #: last failure reason when ``share`` is None


@dataclass
class RunRecord:
    """Scheduler-side record of one executed command."""

    request_id: int
    command: str
    group_size: int
    t_start: float
    t_end: float = 0.0
    #: one aggregate per worker drain with at least one successful unit.
    shares: list[WorkerShare] = field(default_factory=list)
    merged: Any = None
    #: True when the merged result misses at least one unit (partial
    #: results served after unrecoverable worker failures).
    degraded: bool = False
    #: canonical indices of the lost units: shares under a static
    #: schedule, tasks under a dynamic one.
    failed_shares: list[int] = field(default_factory=list)
    #: work units the deal planned (``group_size`` shares under static,
    #: ``len(plan_tasks)`` under dynamic) — the denominator of
    #: ``failed_shares``.
    planned_units: int = 0
    retries: int = 0
    reassignments: int = 0
    #: seconds between submit and the work group being fully acquired
    #: (setup + waiting on busy workers) — the SLO layer's queue term.
    queue_wait_s: float = 0.0
    #: originating tenant when submitted through the serving layer.
    tenant: str = "default"
    #: simulated seconds workers spent waiting on the run tail:
    #: Σ over drains of (last drain end − this drain's end), either
    #: schedule.
    idle_seconds: float = 0.0
    #: units drained beyond the fair share ``ceil(units / group_size)``
    #: (always 0 under static, which deals exactly one unit per worker).
    steals: int = 0

    @property
    def runtime(self) -> float:
        return self.t_end - self.t_start


class Scheduler:
    """Owns the worker pool, the DMS server and command dispatch."""

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        source: BlockSource,
        registry: CommandRegistry,
        costs: CostModel = DEFAULT_COSTS,
        dms_config: DMSConfig | None = None,
        server: DataManagerServer | None = None,
        trace=None,
        tracer=None,
        recovery: RecoveryPolicy | None = None,
    ):
        self.env = env
        self.cluster = cluster
        self.source = source
        self.registry = registry
        self.costs = costs
        self.dms_config = dms_config or DMSConfig()
        self.server = server or DataManagerServer()
        self.trace = trace
        self.tracer = tracer  #: optional repro.obs.SpanTracer
        #: None = fault-free fast path; a policy turns on supervision.
        self.recovery = recovery
        #: session-lifetime recovery counters (published as metrics).
        self.recovery_stats = {
            "timeouts": 0,
            "retries": 0,
            "reassignments": 0,
            "lost_shares": 0,
        }
        self.tcp = SimTCPChannel(cluster)
        self.mpi = SimMPIChannel(cluster, account="other")
        self.workers: list[Worker] = []
        for wid, node in enumerate(cluster.worker_nodes):
            proxy = DataProxy(
                env, cluster, node, self.server, source,
                config=self.dms_config, trace=trace, tracer=tracer,
            )
            self.workers.append(
                Worker(env, cluster, node, proxy, source, wid,
                       trace=trace, tracer=tracer)
            )
        #: the last :data:`HISTORY_LEN` completed runs, oldest first.
        self.history: deque[RunRecord] = deque(maxlen=HISTORY_LEN)
        #: shared block -> TransitionTable graph kept across commands
        #: when ``retain_markov`` is set (the paper's learning phase).
        self._retained_markov: dict = {}
        # Work-group formation (§3): a command starts "as soon as enough
        # processes (called workers) are available".  The free pool is a
        # priority store (lowest ids first, keeping cache placement
        # stable across sequential runs); the guard serializes
        # acquisition so two pending commands cannot deadlock by each
        # grabbing part of the pool.
        from ..des.resources import PriorityStore, Resource

        self._free_workers = PriorityStore(env)
        for wid in range(len(self.workers)):
            self._free_workers.put(wid)
        self._acquire_guard = Resource(env, capacity=1)

    # ------------------------------------------------------- work groups
    def acquire_group(self, group_size: int):
        """Process body: wait for and claim ``group_size`` workers."""
        with self._acquire_guard.request() as guard:
            yield guard
            ids = []
            for _ in range(group_size):
                wid = yield self._free_workers.get()
                ids.append(wid)
        return sorted(ids)

    def release_group(self, ids) -> None:
        for wid in ids:
            self._free_workers.put(wid)

    # ----------------------------------------------------------- helpers
    def _context(self, params: dict[str, Any]) -> CommandContext:
        t0, t1 = params.get("time_range", (0, self.source.n_timesteps))
        if not 0 <= t0 < t1 <= self.source.n_timesteps:
            raise ValueError(
                f"invalid time_range ({t0}, {t1}) for {self.source.n_timesteps} steps"
            )
        handles_by_time = [self.source.handles(t) for t in range(t0, t1)]
        return CommandContext(
            dataset=self.source.name,
            handles_by_time=handles_by_time,
            params=dict(params),
            costs=self.costs,
            time_offset=t0,
            times=list(self.source.times[t0:t1]),
        )

    def _install_prefetchers(
        self, command: Command, ctx: CommandContext, assignments: list[Any], group: list[Worker]
    ) -> None:
        spec = ctx.params.get("prefetch", command.prefetcher_spec(ctx))
        # The DMS statistical unit is central (§4.2): Markov observations
        # from all proxies train one shared probability graph.  With
        # ``retain_markov`` the graph survives across commands — the
        # paper's "after a learning phase" condition, under which "a
        # maximum of 95% cache misses could be eliminated".
        if ctx.params.get("retain_markov"):
            shared_markov_table = self._retained_markov
        else:
            shared_markov_table = {}
        for worker, assignment in zip(group, assignments):
            if spec == "none":
                worker.proxy.prefetcher = make_prefetcher("none")
                continue
            if spec == "block-markov":
                block_order = sorted(
                    h.block_id for h in ctx.handles_by_time[0]
                )
                worker.proxy.prefetcher = BlockMarkovPrefetcher(
                    dataset=ctx.dataset,
                    n_timesteps=ctx.n_timesteps,
                    block_order=block_order,
                    width=int(ctx.params.get("prefetch_width", 1)),
                    time_offset=ctx.time_offset,
                    table=shared_markov_table,
                )
                continue
            sequence = command.item_sequence_for(ctx, assignment) or []
            order = SequenceOrder(sequence)
            kwargs = {}
            if spec == "markov+obl":
                kwargs["width"] = int(ctx.params.get("prefetch_width", 1))
            worker.proxy.prefetcher = make_prefetcher(spec, order, **kwargs)

    # -------------------------------------------------------- run command
    def run_command(
        self,
        name: str,
        params: dict[str, Any],
        group_size: int,
        client_mailbox: Mailbox,
        request_id: int,
        command_kwargs: dict[str, Any] | None = None,
        parent_span=None,
        tenant: str = "default",
    ) -> Generator[Event, None, RunRecord]:
        """Process body: execute one command end to end."""
        if not 1 <= group_size <= len(self.workers):
            raise ValueError(
                f"group_size {group_size} out of range 1..{len(self.workers)}"
            )
        command = self.registry.create(name, **(command_kwargs or {}))
        record = RunRecord(
            request_id=request_id,
            command=name,
            group_size=group_size,
            t_start=self.env.now,
            tenant=tenant,
        )
        sched_node = self.cluster.scheduler_node
        # Command setup (group formation, argument handling), then wait
        # until enough workers are free to form the group (§3).
        yield from sched_node.compute(self.costs.command_setup)
        worker_ids = yield from self.acquire_group(group_size)
        record.queue_wait_s = self.env.now - record.t_start
        # Tag the group's proxies with the command's tenant while the
        # group is held (groups are exclusive, so the tag is unambiguous);
        # the DMS uses it to label cluster-dedup flights per tenant.
        for wid in worker_ids:
            self.workers[wid].proxy.current_tenant = tenant
        if self.trace is not None:
            self.trace.record(
                self.env.now, 0, "command-start",
                request=request_id, command=name, workers=list(worker_ids),
            )
        cspan = None
        if self.tracer is not None:
            # The tenant attribute is added only for non-default tenants
            # so single-client traces (and their pinned fingerprints)
            # are byte-identical to the pre-serving-layer ones.
            extra = {"tenant": tenant} if tenant != "default" else {}
            cspan = self.tracer.begin(
                "command", name=name, node=sched_node.node_id,
                parent=parent_span, request=request_id,
                workers=list(worker_ids), group_size=group_size,
                **extra,
            )
        try:
            record = yield from self._run_on_group(
                command, name, params, worker_ids, client_mailbox,
                request_id, record, command_span=cspan,
            )
        finally:
            if cspan is not None:
                self.tracer.end(cspan)
            for wid in worker_ids:
                self.workers[wid].proxy.current_tenant = "default"
            self.release_group(worker_ids)
        return record

    def _run_on_group(
        self,
        command: Command,
        name: str,
        params: dict[str, Any],
        worker_ids,
        client_mailbox: Mailbox,
        request_id: int,
        record: RunRecord,
        command_span=None,
    ) -> Generator[Event, None, RunRecord]:
        """The one group runner: deal, drain, gather, merge, reply.

        The schedules differ only in the deal.  Static deals one
        :meth:`Command.plan` share per worker and, the deal being known
        before anything runs, sends every :class:`WorkAssignment` up
        front.  Dynamic breaks the plan into fine-grained tasks
        (:meth:`Command.plan_tasks`) ordered heaviest-first by the cost
        model; workers claim them ``steal_batch`` at a time off one
        shared ticket sequence, each batch sent when claimed, so a
        worker that finishes early takes what a static split would have
        stranded on a straggler.  Every claimed unit runs under
        :meth:`_supervise` when a recovery policy is set.  Payloads are
        keyed by canonical unit index and merged in that order, so a
        dynamic merge is byte-identical to a group-1 run.
        """
        group_size = len(worker_ids)
        sched_node = self.cluster.scheduler_node
        ctx = self._context(params)
        group = [self.workers[wid] for wid in worker_ids]
        dynamic = is_dynamic(params.get("schedule"))
        if dynamic:
            units = command.plan_tasks(ctx)
            order = lpt_order([command.task_cost(ctx, task) for task in units])
            batch = max(
                1, int(params.get("steal_batch", max(1, len(units) // (group_size * 4))))
            )
            # One ticket sequence shared by every drain; taking the next
            # batch is atomic (no yield in between in the cooperative kernel).
            tickets = iter([order[lo:lo + batch] for lo in range(0, len(units), batch)])
            deals = [tickets] * group_size
            # Sequence-based prefetchers get an empty assignment (the drain
            # order is unknown until runtime); the Markov prefetcher still
            # learns from the observed request stream.
            self._install_prefetchers(command, ctx, [[] for _ in group], group)
        else:
            units = command.plan(ctx, group_size)
            if len(units) != group_size:
                raise RuntimeError(
                    f"command {name!r} planned {len(units)} assignments "
                    f"for group of {group_size}"
                )
            deals = [iter([[widx]]) for widx in range(group_size)]
            self._install_prefetchers(command, ctx, units, group)
        record.planned_units = len(units)
        fair_share = math.ceil(len(units) / group_size)
        unit_payloads: list[list[Any] | None] = [None] * len(units)

        def assign(widx: int, assignment: Any):
            message = WorkAssignment(
                request_id=request_id,
                command=name,
                params=ctx.params,
                worker_index=widx,
                group_size=group_size,
                assignment=assignment,
            )
            yield from self.mpi.send(sched_node, message, group[widx].mailbox)

        master_mailbox = Mailbox(self.env, name=f"master-{request_id}")
        if not dynamic:
            for widx in range(group_size):
                yield from assign(widx, units[widx])

        def drain(widx: int):
            worker = group[widx]
            agg = WorkerShare(worker_index=widx)
            executor = None  #: who ran this drain's last successful unit
            outcomes: list[ShareOutcome] = []
            for claimed in deals[widx]:
                if dynamic:
                    yield from assign(widx, [units[u] for u in claimed])
                for u in claimed:
                    if self.recovery is None:
                        share = yield from worker.execute(
                            command, ctx, units[u], widx, request_id,
                            client_mailbox, parent_span=command_span, unit=u,
                        )
                        outcome = ShareOutcome(index=u, share=share, executor=worker)
                    else:
                        outcome = yield from self._supervise(
                            command, ctx, units[u], u, widx, request_id,
                            client_mailbox, group, command_span=command_span,
                        )
                    outcomes.append(outcome)
                    share = outcome.share
                    if share is None:
                        continue
                    unit_payloads[u] = share.payloads
                    agg.payloads.extend(share.payloads)
                    agg.nbytes += share.nbytes
                    agg.packets_streamed += share.packets_streamed
                    agg.load_seconds += share.load_seconds
                    agg.compute_seconds += share.compute_seconds
                    agg.stream_seconds += share.stream_seconds
                    executor = outcome.executor
            return agg, executor, outcomes, self.env.now

        procs = [
            self.env.process(drain(widx), name=f"drain{widx}-{name}")
            for widx in range(group_size)
        ]
        results = yield AllOf(self.env, procs)
        drained = [results[p] for p in procs]
        t_drained = self.env.now
        outcomes = sorted(
            (o for _, _, unit_outcomes, _ in drained for o in unit_outcomes),
            key=lambda o: o.index,
        )
        # (executor, share) per drain with at least one successful unit.
        parts = [(executor, agg) for agg, executor, _, _ in drained
                 if executor is not None]
        shares = [agg for _, agg in parts]
        record.shares = shares
        record.failed_shares = [o.index for o in outcomes if o.share is None]
        record.degraded = bool(record.failed_shares)
        record.retries = sum(max(o.attempts - 1, 0) for o in outcomes)
        record.reassignments = sum(o.reassignments for o in outcomes)
        record.steals = sum(max(len(o) - fair_share, 0) for _, _, o, _ in drained)
        record.idle_seconds = sum(t_drained - t_done for *_, t_done in drained)
        if record.degraded:
            self._fault_event(
                "fault-degraded", sched_node.node_id,
                parent=command_span, request=request_id,
                failed_shares=list(record.failed_shares),
            )

        master = parts[0][0] if parts else group[0]
        if command.streaming:
            # Workers streamed directly; signal completion to the client.
            final = ResultPacket(
                request_id=request_id,
                worker_index=0,
                sequence=sum(s.packets_streamed for s in shares),
                payload=None,
                nbytes=0,
                final=True,
            )
        else:
            # Gather partials at the master worker over the fabric, one
            # message per drain (charged for exactly its payloads).
            for worker, share in parts[1:]:
                yield from worker.send_share_to_master(
                    share, request_id, master_mailbox, parent_span=command_span,
                )
            for _ in shares[1:]:
                message = yield master_mailbox.get()
                assert isinstance(message, WorkerDone)
            total_nbytes = sum(s.nbytes for s in shares)
            mspan = None
            if self.tracer is not None:
                mspan = self.tracer.begin(
                    "merge", name=name, node=master.node.node_id,
                    parent=command_span, nbytes=total_nbytes,
                    n_shares=len(shares),
                )
            yield from master.node.compute(self.costs.merge_per_byte * total_nbytes)
            record.merged = command.merge([p for p in unit_payloads if p is not None])
            if mspan is not None:
                self.tracer.end(mspan)
            final = ResultPacket(
                request_id=request_id,
                worker_index=0,
                sequence=0,
                payload=record.merged,
                nbytes=total_nbytes,
                final=True,
            )
        fspan = None
        if self.tracer is not None:
            fspan = self.tracer.begin(
                "stream-packet", name="final", node=master.node.node_id,
                parent=command_span, nbytes=final.nbytes, final=True,
            )
        yield from self.tcp.send(master.node, final, client_mailbox)
        if fspan is not None:
            self.tracer.end(fspan)

        record.t_end = self.env.now
        self.history.append(record)
        if self.trace is not None:
            self.trace.record(
                self.env.now, 0, "command-end",
                request=request_id, command=name,
            )
        return record

    # ---------------------------------------------------------- recovery
    def _fault_event(self, kind: str, node: int, parent=None, **detail: Any) -> None:
        """Emit one instantaneous fault-* record to trace and tracer."""
        if self.trace is not None:
            self.trace.record(self.env.now, node, kind, **detail)
        if self.tracer is not None:
            span = self.tracer.begin(kind, name=kind, node=node, parent=parent, **detail)
            self.tracer.end(span)

    def _pick_survivor(self, group: list[Worker]) -> Worker | None:
        """Deterministic reassignment target: lowest-id live group member."""
        for worker in group:
            if not worker.crashed:
                return worker
        return None

    def _attempt(
        self,
        worker: Worker,
        command: Command,
        ctx: CommandContext,
        assignment: Any,
        unit: int,
        widx: int,
        request_id: int,
        client_mailbox: Mailbox,
        command_span=None,
        attempt: int = 1,
    ) -> Generator[Event, None, tuple[WorkerShare | None, str]]:
        """Process body: one execution attempt of ``unit`` on ``worker``.

        Returns ``(share, "ok")`` on success, ``(None, reason)`` when
        the attempt crashed or exceeded the assignment timeout.  The
        attempt's process failure is always consumed here, so a fault
        never propagates out of the supervisor.
        """
        policy = self.recovery
        proc = self.env.process(
            worker.execute(
                command, ctx, assignment, widx, request_id, client_mailbox,
                parent_span=command_span, unit=unit,
            ),
            name=f"worker{widx}-{command.name}-try{attempt}",
        )
        worker._active_proc = proc
        try:
            if policy.assignment_timeout is not None:
                deadline = self.env.timeout(policy.assignment_timeout)
                yield AnyOf(self.env, [proc, deadline])
                if not proc.triggered:
                    self.recovery_stats["timeouts"] += 1
                    self._fault_event(
                        "fault-timeout", worker.node.node_id,
                        parent=command_span, request=request_id, share=unit,
                        timeout=policy.assignment_timeout,
                    )
                    proc.interrupt(("assignment-timeout", unit))
                    try:
                        share = yield proc
                        return share, "ok"  # finished right at the deadline
                    except (Interrupt, WorkerUnavailable):
                        return None, "timeout"
                if proc.ok:
                    return proc.value, "ok"
                # Failed in the same timestep the deadline fired; AnyOf
                # already defused the failure, so classify it here.
                cause = getattr(proc.value, "cause", None)
                if isinstance(proc.value, WorkerUnavailable):
                    return None, "worker-down"
                reason = cause[0] if isinstance(cause, tuple) and cause else "interrupt"
                return None, str(reason)
            share = yield proc
            return share, "ok"
        except Interrupt as exc:
            cause = exc.cause
            reason = cause[0] if isinstance(cause, tuple) and cause else "interrupt"
            return None, str(reason)
        except WorkerUnavailable:
            return None, "worker-down"
        finally:
            if worker._active_proc is proc:
                worker._active_proc = None

    def _supervise(
        self,
        command: Command,
        ctx: CommandContext,
        assignment: Any,
        unit: int,
        widx: int,
        request_id: int,
        client_mailbox: Mailbox,
        group: list[Worker],
        command_span=None,
    ) -> Generator[Event, None, ShareOutcome]:
        """Drive work unit ``unit``, claimed by ``group[widx]``, to
        completion despite faults.

        Bounded retry with exponential backoff in simulated time; a
        crashed primary's unit moves to the lowest-id surviving group
        member (when the policy allows reassignment).  Exhausting every
        attempt yields a ``share=None`` outcome — the command then
        serves a partial result flagged ``degraded`` instead of hanging.
        """
        policy = self.recovery
        primary = group[widx]
        reassignments = 0
        reason = "ok"
        total_tries = 1 + max(policy.max_retries, 0)
        for attempt in range(total_tries):
            if attempt:
                self.recovery_stats["retries"] += 1
                self._fault_event(
                    "fault-retry", primary.node.node_id,
                    parent=command_span, request=request_id, share=unit,
                    attempt=attempt + 1, reason=reason,
                )
                delay = policy.retry_backoff * (policy.backoff_factor ** (attempt - 1))
                if delay > 0:
                    yield self.env.timeout(delay)
            worker = primary
            if primary.crashed:
                worker = self._pick_survivor(group) if policy.reassign else None
            if worker is None:
                reason = "no-survivor"
                continue
            if worker is not primary:
                reassignments += 1
                self.recovery_stats["reassignments"] += 1
                self._fault_event(
                    "fault-reassign", worker.node.node_id,
                    parent=command_span, request=request_id, share=unit,
                    from_worker=primary.worker_id, to_worker=worker.worker_id,
                )
            share, reason = yield from self._attempt(
                worker, command, ctx, assignment, unit, widx, request_id,
                client_mailbox, command_span=command_span, attempt=attempt + 1,
            )
            if share is not None:
                return ShareOutcome(
                    index=unit, share=share, executor=worker,
                    attempts=attempt + 1, reassignments=reassignments,
                )
        self.recovery_stats["lost_shares"] += 1
        self._fault_event(
            "fault-giveup", primary.node.node_id,
            parent=command_span, request=request_id, share=unit,
            attempts=total_tries, reason=reason,
        )
        return ShareOutcome(
            index=unit, share=None, executor=None,
            attempts=total_tries, reassignments=reassignments, reason=reason,
        )

    # ---------------------------------------------------------- warm-ups
    def clear_caches(self) -> None:
        """Cold-start state: drop every proxy's cache tiers."""
        for worker in self.workers:
            for key in list(worker.proxy.cache.l1.keys()):
                self.server.unregister_holder(key, worker.node.node_id)
            if worker.proxy.cache.l2 is not None:
                for key in list(worker.proxy.cache.l2.keys()):
                    self.server.unregister_holder(key, worker.node.node_id)
            worker.proxy.cache.clear()

    def aggregate_dms_stats(self):
        from ..dms.stats import DMSStatistics

        agg = DMSStatistics()
        for worker in self.workers:
            agg.merge(worker.proxy.stats)
        return agg
