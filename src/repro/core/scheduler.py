"""Layer 2: the scheduler.

The scheduler lives on node 0 of the cluster, receives command requests
from the visualization client over TCP, forms a work group, distributes
assignments over the message-passing fabric, and coordinates result
collection: either the master worker gathers partial results and sends
one merged package (the standard path of §3), or — with streaming —
workers transmit directly and the scheduler only signals completion.
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

    With a policy installed, every share runs under a supervisor that
    retries crashed or timed-out attempts (backoff in *simulated* time)
    and reassigns a dead worker's share to a surviving group member.
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
    #: move a dead worker's share to the lowest-id surviving group
    #: member; False pins shares to their original worker.
    reassign: bool = True


@dataclass
class ShareOutcome:
    """What the supervisor concluded about one share of a command."""

    index: int  #: share index within the work group
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
    shares: list[WorkerShare] = field(default_factory=list)
    merged: Any = None
    #: True when the merged result misses at least one share (partial
    #: results served after unrecoverable worker failures).
    degraded: bool = False
    failed_shares: list[int] = field(default_factory=list)
    retries: int = 0
    reassignments: int = 0
    #: seconds between submit and the work group being fully acquired
    #: (setup + waiting on busy workers) — the SLO layer's queue term.
    queue_wait_s: float = 0.0
    #: originating tenant when submitted through the serving layer.
    tenant: str = "default"
    #: simulated seconds workers spent waiting on the run tail (dynamic
    #: runs; always 0.0 on the static path, so fingerprints are stable).
    idle_seconds: float = 0.0
    #: tasks executed beyond static fair shares (dynamic runs only).
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
        self.mailbox = Mailbox(env, name="scheduler")
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
            if is_dynamic(params.get("schedule")):
                record = yield from self._run_dynamic_on_group(
                    command, name, params, worker_ids, client_mailbox,
                    request_id, record, command_span=cspan,
                )
            else:
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
        group_size = len(worker_ids)
        sched_node = self.cluster.scheduler_node
        ctx = self._context(params)
        group = [self.workers[wid] for wid in worker_ids]
        assignments = command.plan(ctx, group_size)
        if len(assignments) != group_size:
            raise RuntimeError(
                f"command {name!r} planned {len(assignments)} assignments "
                f"for group of {group_size}"
            )
        self._install_prefetchers(command, ctx, assignments, group)

        # Distribute assignments over the fabric.
        master_mailbox = Mailbox(self.env, name=f"master-{request_id}")
        for idx, (worker, assignment) in enumerate(zip(group, assignments)):
            message = WorkAssignment(
                request_id=request_id,
                command=name,
                params=ctx.params,
                worker_index=idx,
                group_size=group_size,
                assignment=assignment,
            )
            yield from self.mpi.send(sched_node, message, worker.mailbox)

        # Execute all shares concurrently.  With a recovery policy each
        # share runs under a supervisor (timeout/retry/reassignment);
        # without one the fault-free fast path is used unchanged.
        if self.recovery is None:
            procs = [
                self.env.process(
                    worker.execute(
                        command, ctx, assignment, idx, request_id, client_mailbox,
                        parent_span=command_span,
                    ),
                    name=f"worker{idx}-{name}",
                )
                for idx, (worker, assignment) in enumerate(zip(group, assignments))
            ]
            results = yield AllOf(self.env, procs)
            outcomes = [
                ShareOutcome(index=idx, share=results[p], executor=group[idx])
                for idx, p in enumerate(procs)
            ]
        else:
            sups = [
                self.env.process(
                    self._supervise(
                        command, ctx, assignment, idx, request_id,
                        client_mailbox, group, command_span=command_span,
                    ),
                    name=f"supervise{idx}-{name}",
                )
                for idx, assignment in enumerate(assignments)
            ]
            results = yield AllOf(self.env, sups)
            outcomes = [results[p] for p in sups]

        successful = [o for o in outcomes if o.share is not None]
        shares = [o.share for o in successful]
        record.shares = shares
        record.failed_shares = [o.index for o in outcomes if o.share is None]
        record.degraded = bool(record.failed_shares)
        record.retries = sum(max(o.attempts - 1, 0) for o in outcomes)
        record.reassignments = sum(o.reassignments for o in outcomes)
        if record.degraded:
            self._fault_event(
                "fault-degraded", self.cluster.scheduler_node.node_id,
                parent=command_span, request=request_id,
                failed_shares=list(record.failed_shares),
            )

        return (
            yield from self._finish_on_group(
                command, name, record,
                [(o.executor, o.share) for o in successful], group[0],
                master_mailbox, client_mailbox, request_id, command_span,
            )
        )

    def _run_dynamic_on_group(
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
        """Work-stealing mirror of :meth:`_run_on_group`.

        The command's plan is broken into fine-grained tasks
        (:meth:`Command.plan_tasks`) ordered heaviest-first by the cost
        model; workers *drain* them in batches off a shared position —
        each batch dispatched as its own :class:`WorkAssignment` over
        the fabric — so a worker that finishes early claims what a
        static split would have stranded on a straggler.  Payloads are
        keyed by canonical task index and merged in canonical order, so
        the merged result is byte-identical to the static path.
        """
        if self.recovery is not None:
            raise RuntimeError(
                "dynamic scheduling does not compose with a RecoveryPolicy; "
                "use the default static schedule for supervised runs"
            )
        group_size = len(worker_ids)
        sched_node = self.cluster.scheduler_node
        ctx = self._context(params)
        group = [self.workers[wid] for wid in worker_ids]
        tasks = command.plan_tasks(ctx)
        n_tasks = len(tasks)
        estimates = [command.task_cost(ctx, task) for task in tasks]
        order = lpt_order(estimates)
        batch = max(
            1, int(params.get("steal_batch", max(1, n_tasks // (group_size * 4))))
        )
        fair_share = math.ceil(n_tasks / group_size)
        # Sequence-based prefetchers get an empty assignment (the drain
        # order is unknown until runtime); the Markov prefetcher still
        # learns from the observed request stream.
        self._install_prefetchers(command, ctx, [[] for _ in group], group)
        master_mailbox = Mailbox(self.env, name=f"master-{request_id}")
        pos = [0]  # shared ticket position; claim+advance is atomic
        # (no yield between read and update in the cooperative kernel).
        task_payloads: list[list[Any] | None] = [None] * n_tasks
        finish_times = [record.t_start] * group_size
        steal_counts = [0] * group_size

        def drain(worker: Worker, widx: int):
            agg = WorkerShare(worker_index=widx)
            executed = 0
            while pos[0] < n_tasks:
                lo = pos[0]
                hi = min(lo + batch, n_tasks)
                pos[0] = hi
                claimed = [order[p] for p in range(lo, hi)]
                message = WorkAssignment(
                    request_id=request_id,
                    command=name,
                    params=ctx.params,
                    worker_index=widx,
                    group_size=group_size,
                    assignment=[tasks[t] for t in claimed],
                )
                yield from self.mpi.send(sched_node, message, worker.mailbox)
                for tidx in claimed:
                    share = yield from worker.execute(
                        command, ctx, tasks[tidx], widx, request_id,
                        client_mailbox, parent_span=command_span,
                    )
                    task_payloads[tidx] = list(share.payloads)
                    agg.payloads.extend(share.payloads)
                    agg.nbytes += share.nbytes
                    agg.packets_streamed += share.packets_streamed
                    agg.load_seconds += share.load_seconds
                    agg.compute_seconds += share.compute_seconds
                    agg.stream_seconds += share.stream_seconds
                    executed += 1
                    if executed > fair_share:
                        steal_counts[widx] += 1
            finish_times[widx] = self.env.now
            return agg

        procs = [
            self.env.process(drain(worker, widx), name=f"drain{widx}-{name}")
            for widx, worker in enumerate(group)
        ]
        results = yield AllOf(self.env, procs)
        shares = [results[p] for p in procs]
        record.shares = shares
        record.steals = sum(steal_counts)
        t_drained = self.env.now
        record.idle_seconds = sum(t_drained - ft for ft in finish_times)

        return (
            yield from self._finish_on_group(
                command, name, record, list(zip(group, shares)), group[0],
                master_mailbox, client_mailbox, request_id, command_span,
                task_payloads=task_payloads,
            )
        )

    def _finish_on_group(
        self,
        command: Command,
        name: str,
        record: RunRecord,
        parts: list[tuple[Worker, WorkerShare]],
        fallback_master: Worker,
        master_mailbox: Mailbox,
        client_mailbox: Mailbox,
        request_id: int,
        command_span,
        task_payloads: list[list[Any] | None] | None = None,
    ) -> Generator[Event, None, RunRecord]:
        """The tail both group runners share: gather at the master,
        merge, send the final packet, close the record.

        ``parts`` pairs each surviving share with the worker that holds
        it, the master's first.  The merge takes the shares' payloads in
        that order, or — for a dynamic run — ``task_payloads`` in
        canonical task order.
        """
        master = parts[0][0] if parts else fallback_master
        shares = [share for _, share in parts]
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
            # Collect partials at the master worker over the fabric
            # (charged for exactly the payloads each worker produced).
            for worker, share in parts[1:]:
                yield from worker.send_share_to_master(
                    share, request_id, master_mailbox, parent_span=command_span,
                )
            collected = [shares[0].payloads] if shares else []
            for _ in shares[1:]:
                message = yield master_mailbox.get()
                assert isinstance(message, WorkerDone)
                collected.append(message.payload)
            if task_payloads is not None:
                missing = [i for i, p in enumerate(task_payloads) if p is None]
                if missing:
                    raise RuntimeError(
                        f"dynamic run left tasks unexecuted: {missing}"
                    )
                collected = [list(p) for p in task_payloads]
            total_nbytes = sum(s.nbytes for s in shares)
            mspan = None
            if self.tracer is not None:
                mspan = self.tracer.begin(
                    "merge", name=name, node=master.node.node_id,
                    parent=command_span, nbytes=total_nbytes,
                    n_shares=len(shares),
                )
            yield from master.node.compute(self.costs.merge_per_byte * total_nbytes)
            record.merged = command.merge(collected)
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
        idx: int,
        request_id: int,
        client_mailbox: Mailbox,
        command_span=None,
        attempt: int = 1,
    ) -> Generator[Event, None, tuple[WorkerShare | None, str]]:
        """Process body: one execution attempt on ``worker``.

        Returns ``(share, "ok")`` on success, ``(None, reason)`` when
        the attempt crashed or exceeded the assignment timeout.  The
        attempt's process failure is always consumed here, so a fault
        never propagates out of the supervisor.
        """
        policy = self.recovery
        proc = self.env.process(
            worker.execute(
                command, ctx, assignment, idx, request_id, client_mailbox,
                parent_span=command_span,
            ),
            name=f"worker{idx}-{command.name}-try{attempt}",
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
                        parent=command_span, request=request_id, share=idx,
                        timeout=policy.assignment_timeout,
                    )
                    proc.interrupt(("assignment-timeout", idx))
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
        idx: int,
        request_id: int,
        client_mailbox: Mailbox,
        group: list[Worker],
        command_span=None,
    ) -> Generator[Event, None, ShareOutcome]:
        """Process body: drive one share to completion despite faults.

        Bounded retry with exponential backoff in simulated time; a
        crashed primary's share moves to the lowest-id surviving group
        member (when the policy allows reassignment).  Exhausting every
        attempt yields a ``share=None`` outcome — the command then
        serves a partial result flagged ``degraded`` instead of hanging.
        """
        policy = self.recovery
        primary = group[idx]
        reassignments = 0
        reason = "ok"
        total_tries = 1 + max(policy.max_retries, 0)
        for attempt in range(total_tries):
            if attempt:
                self.recovery_stats["retries"] += 1
                self._fault_event(
                    "fault-retry", primary.node.node_id,
                    parent=command_span, request=request_id, share=idx,
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
                    parent=command_span, request=request_id, share=idx,
                    from_worker=primary.worker_id, to_worker=worker.worker_id,
                )
            share, reason = yield from self._attempt(
                worker, command, ctx, assignment, idx, request_id,
                client_mailbox, command_span=command_span, attempt=attempt + 1,
            )
            if share is not None:
                return ShareOutcome(
                    index=idx, share=share, executor=worker,
                    attempts=attempt + 1, reassignments=reassignments,
                )
        self.recovery_stats["lost_shares"] += 1
        self._fault_event(
            "fault-giveup", primary.node.node_id,
            parent=command_span, request=request_id, share=idx,
            attempts=total_tries, reason=reason,
        )
        return ShareOutcome(
            index=idx, share=None, executor=None,
            attempts=total_tries, reassignments=reassignments, reason=reason,
        )

    # --------------------------------------------------------- serve loop
    def serve(self, client_mailbox: Mailbox) -> Generator[Event, None, int]:
        """Persistent dispatch loop (daemon operation, §3).

        Consumes :class:`CommandRequest` messages from the scheduler
        mailbox — the way ViSTA FlowLib drives the real system — and
        spawns one command process per request; commands queue on the
        worker pool, not on each other.  A :class:`Shutdown` message
        ends the loop.  Returns the number of commands dispatched.
        """
        from .messages import CommandRequest, Shutdown

        dispatched = 0
        while True:
            message = yield self.mailbox.get()
            if isinstance(message, Shutdown):
                return dispatched
            if not isinstance(message, CommandRequest):
                continue
            group_size = message.group_size or len(self.workers)
            self.env.process(
                self.run_command(
                    message.command,
                    dict(message.params),
                    group_size,
                    client_mailbox,
                    message.request_id,
                    tenant=message.tenant,
                ),
                name=f"serve-{message.command}-{message.request_id}",
            )
            dispatched += 1

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
