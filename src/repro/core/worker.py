"""Layer 2: workers.

A worker executes its share of a command by driving the command's op
generator (layer 3), charging simulated time for loads, computation and
transmission, while producing *real* geometry.

"Whenever the user requires a new CFD feature, a command is sent [...]
As soon as enough processes (called workers) are available, they form a
work group and a new parallel post-processing task is started." (§3)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from ..des.cluster import SimCluster, SimNode
from ..des.kernel import Environment, Event
from ..dms.proxy import DataProxy
from ..dms.source import BlockSource
from ..obs.spans import NULL_TRACER, SpanTracer
from .channels import Mailbox, SimMPIChannel, SimTCPChannel
from .commands import (
    Command,
    CommandContext,
    Compute,
    ComputeCached,
    Emit,
    Load,
    Prefetch,
)
from .messages import ProgressUpdate, ResultPacket, WorkerDone

__all__ = ["Worker", "WorkerShare", "WorkerUnavailable"]


class WorkerUnavailable(RuntimeError):
    """Raised when an assignment is started on a crashed worker."""


@dataclass
class WorkerShare:
    """What one worker produced for one command (returned to the master)."""

    worker_index: int
    payloads: list[Any] = field(default_factory=list)
    nbytes: int = 0
    packets_streamed: int = 0


class Worker:
    """One computing process of the cluster."""

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        node: SimNode,
        proxy: DataProxy,
        source: BlockSource,
        worker_id: int,
        tracer: SpanTracer = NULL_TRACER,
    ):
        self.env = env
        self.cluster = cluster
        self.node = node
        self.proxy = proxy
        self.source = source
        self.worker_id = worker_id
        self.tracer = tracer
        self.mailbox = Mailbox(env, name=f"worker{worker_id}")
        self.tcp = SimTCPChannel(cluster)
        self.mpi = SimMPIChannel(cluster)
        #: fault state: a crashed worker aborts its running assignment
        #: and refuses new ones until :meth:`recover` is called.
        self.crashed = False
        #: the Process currently executing this worker's assignment
        #: (set by the scheduler's supervisor; interrupt target).
        self._active_proc = None

    # ------------------------------------------------------------ faults
    def crash(self, reason: str = "fault") -> None:
        """Kill this worker: abort the running assignment, go offline.

        The in-flight assignment process (if any) is interrupted with a
        ``("worker-crash", worker_id, reason)`` cause; the scheduler's
        supervisor observes the failure and retries or reassigns the
        share.  Cached data survives the crash (the node's memory is
        simulated state, not a real process image).
        """
        self.crashed = True
        proc = self._active_proc
        if proc is not None and proc.is_alive:
            proc.interrupt(cause=("worker-crash", self.worker_id, reason))

    def recover(self, reason: str = "recovered") -> None:
        """Bring a crashed worker back online (new assignments only)."""
        self.crashed = False

    # ----------------------------------------------------------- loading
    def _load_direct(self, item) -> Generator[Event, None, Any]:
        """Bypass the DMS: read from the fileserver every single time.

        This is what the paper's Simple* baselines do — no cache, no
        prefetch, no cooperative transfers.
        """
        nbytes = self.source.modeled_bytes(item)
        yield from self.cluster.read_fileserver(self.node, nbytes)
        return self.source.get(item)

    # ---------------------------------------------------------- execute
    def execute(
        self,
        command: Command,
        ctx: CommandContext,
        assignment: Any,
        worker_index: int,
        request_id: int,
        client_mailbox: Mailbox,
        parent_span=None,
        *,
        unit: int,
    ) -> Generator[Event, None, WorkerShare]:
        """Process body: run one assignment to completion.

        ``unit`` is the assignment's canonical work-unit index (the
        share index under a static schedule); streamed packets carry it
        so the client dedups a retried unit and never merges two units.

        Raises :class:`WorkerUnavailable` when started on a crashed
        worker; an injected mid-run crash surfaces as an
        :class:`~repro.des.kernel.Interrupt` failure of the wrapping
        process.  All spans opened by this attempt are closed on any
        exit path so a crashed attempt leaves a well-formed trace.
        """
        if self.crashed:
            raise WorkerUnavailable(f"worker {self.worker_id} is down")
        share = WorkerShare(worker_index=worker_index)
        tracer = self.tracer
        wspan = tracer.begin(
            "worker", name=f"{command.name}[{worker_index}]",
            node=self.node.node_id, parent=parent_span,
            request=request_id, worker=worker_index,
        )
        open_leaf = None  #: child span an abort would leave dangling
        gen = command.run(ctx, assignment, worker_index)
        # Optional §9 progress feedback: one tiny packet per block load.
        report_progress = ctx.params["progress"]
        try:
            progress_total = len(assignment)
        except TypeError:
            progress_total = 0
        progress_done = 0
        op_result: Any = None
        try:
            while True:
                try:
                    op = gen.send(op_result)
                except StopIteration:
                    break
                op_result = None
                if isinstance(op, Load):
                    lspan = open_leaf = tracer.begin(
                        "load", name=str(op.item), node=self.node.node_id,
                        parent=wspan, dms=command.use_dms,
                    )
                    if command.use_dms:
                        op_result = yield from self.proxy.request(
                            op.item, parent_span=lspan
                        )
                    else:
                        op_result = yield from self._load_direct(op.item)
                    tracer.end(lspan)
                    open_leaf = None
                    if report_progress and progress_total:
                        progress_done = min(progress_done + 1, progress_total)
                        update = ProgressUpdate(
                            request_id=request_id,
                            worker_index=worker_index,
                            completed=progress_done,
                            total=progress_total,
                        )
                        yield from self.tcp.send(self.node, update, client_mailbox)
                elif isinstance(op, Compute):
                    cspan = open_leaf = tracer.begin(
                        "compute", name=command.name, node=self.node.node_id,
                        parent=wspan, cost=op.cost,
                    )
                    op_result = op.fn() if op.fn is not None else None
                    yield from self.node.compute(op.cost)
                    tracer.end(cspan)
                    open_leaf = None
                elif isinstance(op, ComputeCached):
                    cspan = open_leaf = tracer.begin(
                        "compute", name=command.name, node=self.node.node_id,
                        parent=wspan, cost=op.cost, item=str(op.item),
                    )
                    payload, where = (None, None)
                    if command.use_dms:
                        payload, where = self.proxy.lookup_derived(
                            op.item, count_miss=op.fn is not None
                        )
                    if payload is not None:
                        # Derived-cache hit: the work was already paid
                        # for; an L2 hit still costs the local read.
                        if where == "l2":
                            yield from self.node.read_local(op.nbytes)
                        op_result = payload
                    elif op.fn is not None:
                        op_result = op.fn()
                        yield from self.node.compute(op.cost)
                        if command.use_dms:
                            yield from self.proxy.store_derived(
                                op.item, op_result, op.nbytes
                            )
                    # else: a probe (fn=None) missed — the command will
                    # derive the item itself; nothing charged here.
                    tracer.end(cspan, cached=payload is not None)
                    open_leaf = None
                elif isinstance(op, Emit):
                    if command.streaming:
                        sspan = open_leaf = tracer.begin(
                            "stream-packet", name=f"packet{share.packets_streamed}",
                            node=self.node.node_id, parent=wspan,
                            nbytes=op.nbytes, sequence=share.packets_streamed,
                        )
                        if ctx.costs.stream_packet_overhead:
                            yield from self.node.compute(ctx.costs.stream_packet_overhead)
                        packet = ResultPacket(
                            request_id=request_id,
                            worker_index=worker_index,
                            sequence=share.packets_streamed,
                            payload=op.payload,
                            nbytes=op.nbytes,
                            kind=op.kind,
                            unit=unit,
                        )
                        share.packets_streamed += 1
                        yield from self.tcp.send(self.node, packet, client_mailbox)
                        tracer.end(sspan)
                        open_leaf = None
                    else:
                        share.payloads.append(op.payload)
                        share.nbytes += op.nbytes
                elif isinstance(op, Prefetch):
                    if command.use_dms:
                        self.proxy.prefetch(op.item)
                else:
                    raise TypeError(
                        f"command {command.name!r} yielded unknown op {op!r}"
                    )
        finally:
            if open_leaf is not None:
                tracer.end(open_leaf, aborted=True)
            tracer.end(
                wspan, nbytes=share.nbytes,
                packets_streamed=share.packets_streamed,
            )
        return share

    def send_share_to_master(
        self, share: WorkerShare, request_id: int, master_mailbox: Mailbox,
        parent_span=None,
    ) -> Generator[Event, None, None]:
        """Transfer this worker's buffered partial result over the fabric."""
        message = WorkerDone(
            request_id=request_id,
            worker_index=share.worker_index,
            partial_nbytes=share.nbytes,
            payload=share.payloads,
        )
        span = self.tracer.begin(
            "stream-packet", name=f"share[{share.worker_index}]",
            node=self.node.node_id, parent=parent_span,
            nbytes=share.nbytes, request=request_id, share=True,
        )
        yield from self.mpi.send(self.node, message, master_mailbox)
        self.tracer.end(span)
