"""The client-facing session facade.

:class:`ViracochaSession` wires a synthetic (or on-disk) dataset, the
simulated cluster, the DMS and the scheduler together and exposes one
submit path — :meth:`ViracochaSession.submit` — that sends a command
exactly the way ViSTA FlowLib would: a TCP request to the scheduler,
parallel extraction on the workers, packets back to the visualization
client.  :meth:`~ViracochaSession.run`,
:meth:`~ViracochaSession.run_concurrent` and the serving layer's
backend all go through it.

All results carry both the *real* extracted geometry and the *simulated*
timing record (total runtime, latency, per-component breakdown), which
is what the benchmark harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..des.cluster import ClusterConfig, NodeBreakdown, SimCluster
from ..des.kernel import Environment
from ..dms.loading import AdaptiveSelector
from ..dms.proxy import DMSConfig
from ..dms.server import DataManagerServer
from ..dms.source import BlockSource, SyntheticSource
from ..synth.base import SyntheticDataset
from ..viz.client import VisualizationClient
from ..viz.mesh import TriangleMesh
from .channels import ClientUplink
from .commands import CommandRegistry
from .costs import CostModel, DEFAULT_COSTS
from .messages import CommandRequest, next_request_id
from .scheduler import RecoveryPolicy, Scheduler

__all__ = ["CommandResult", "ViracochaSession"]


@dataclass
class CommandResult:
    """Everything one command run produced and measured."""

    command: str
    params: dict[str, Any]
    group_size: int
    total_runtime: float  #: submit → final package at the client [sim s]
    latency: float  #: submit → first data at the client [sim s]
    n_packets: int
    packet_times: list[float]
    geometry: Any  #: merged TriangleMesh (or command-specific payload)
    payloads: list[Any]
    #: compute/read/send/other worker seconds and DMS statistic deltas
    #: over the submitting batch (one request for :meth:`ViracochaSession.run`).
    breakdown: dict[str, float]
    dms: dict[str, Any]
    strategy_decisions: dict[str, int]
    #: spans recorded during this run (repro.obs.Span), in begin order.
    spans: list[Any] = field(default_factory=list)
    #: session metrics snapshot taken right after this run.
    metrics: dict[str, Any] = field(default_factory=dict)
    #: the session's SpanTracer (shared across runs; None if disabled).
    tracer: Any = None
    #: True when the merged result is partial: at least one worker share
    #: was unrecoverable and the scheduler served what it had.
    degraded: bool = False
    #: unit indices missing from the merge (empty unless degraded):
    #: shares under a static schedule, tasks under a dynamic one.
    failed_shares: list[int] = field(default_factory=list)
    #: work units the run planned — what ``failed_shares`` is out of.
    planned_units: int = 0
    #: recovery actions taken for this run (retries, reassignments).
    recovery: dict[str, int] = field(default_factory=dict)
    #: submit → work group fully acquired [sim s]; the queue term the
    #: SLO/critical-path layer reports separately from execution.
    queue_wait_s: float = 0.0
    #: originating tenant when submitted through the serving layer.
    tenant: str = "default"
    #: submit → first *complete* approximation at the client (TTFA)
    #: [sim s].  Progressive commands mark it with per-worker
    #: "approximation" packets; for everything else it equals
    #: ``latency`` (the first data is the only approximation).
    ttfa_s: float = 0.0

    @property
    def complete(self) -> bool:
        """Every planned share made it into the merged result."""
        return not self.degraded

    def span_kinds(self) -> set:
        return {s.kind for s in self.spans}

    def spans_of_kind(self, kind: str) -> list:
        return [s for s in self.spans if s.kind == kind]

    @property
    def breakdown_fractions(self) -> dict[str, float]:
        total = sum(self.breakdown.values())
        if total == 0:
            return {k: 0.0 for k in self.breakdown}
        return {k: v / total for k, v in self.breakdown.items()}

    def interaction_report(self, criteria=None, renderer=None) -> dict[str, object]:
        """Check this result against the §1.1 VR interaction criteria.

        The response-time criterion applies to the first feedback the
        user perceives — with streaming, the first partial result.
        """
        from ..viz.client import FrameRateModel, InteractionCriteria

        criteria = criteria or InteractionCriteria()
        renderer = renderer or FrameRateModel()
        n_triangles = (
            self.geometry.n_triangles
            if isinstance(self.geometry, TriangleMesh)
            else 0
        )
        frame_rate = renderer.frame_rate(n_triangles)
        return {
            "frame_rate_hz": frame_rate,
            "frame_rate_ok": criteria.frame_rate_ok(frame_rate),
            "first_feedback_s": self.latency,
            "response_time_ok": criteria.response_time_ok(self.latency),
            "first_approximation_s": self.ttfa_s,
            "ttfa_ok": criteria.response_time_ok(self.ttfa_s),
        }


class ViracochaSession:
    """One client ↔ cluster session over a fixed dataset."""

    def __init__(
        self,
        dataset: SyntheticDataset | BlockSource,
        n_workers: int = 4,
        cluster_config: ClusterConfig | None = None,
        dms_config: DMSConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        registry: CommandRegistry | None = None,
        adaptive_loading: bool = True,
        trace: bool = False,
        observe: bool = True,
        recovery: RecoveryPolicy | None = None,
        max_spans: int | None = None,
    ):
        self.source: BlockSource = (
            SyntheticSource(dataset)
            if isinstance(dataset, SyntheticDataset)
            else dataset
        )
        self.env = Environment()
        config = cluster_config or ClusterConfig(n_workers=n_workers)
        if config.n_workers != n_workers and cluster_config is None:
            config = ClusterConfig(n_workers=n_workers)
        self.cluster = SimCluster(self.env, config)
        if registry is None:
            from ..commands import default_registry

            registry = default_registry()
        server = DataManagerServer(AdaptiveSelector(adaptive=adaptive_loading))
        from ..des.trace import TraceRecorder
        from ..obs import MetricsRegistry, SpanTracer

        self.trace = TraceRecorder(enabled=True) if trace else None
        #: hierarchical span tracer (repro.obs); on by default, layered
        #: over the flat recorder when ``trace=True``.
        self.tracer = SpanTracer(
            recorder=self.trace,
            clock=lambda: self.env.now,
            enabled=observe,
            max_spans=max_spans,
        )
        #: unified metrics registry; DMS statistics publish into it.
        self.metrics = MetricsRegistry()
        self.scheduler = Scheduler(
            self.env,
            self.cluster,
            self.source,
            registry,
            costs=costs,
            dms_config=dms_config,
            server=server,
            trace=self.trace,
            tracer=self.tracer,
            recovery=recovery,
        )
        self.client = VisualizationClient(self.env)
        #: client → scheduler direction of the TCP link (see :meth:`submit`).
        self.uplink = ClientUplink(self.cluster)
        self.n_workers = config.n_workers

    # ---------------------------------------------------------------- run
    def run(
        self,
        command: str,
        params: dict[str, Any] | None = None,
        group_size: int | None = None,
        *,
        tenant: str = "default",
        **command_kwargs: Any,
    ) -> CommandResult:
        """Submit one command and simulate it to completion."""
        request = self.new_request(command, params, group_size, tenant)
        (result,) = self._run_batch(
            [(request, command_kwargs)], f"run-{command}", stamp_ttfa=True,
            request=request.request_id, command=command,
        )
        return result

    def run_concurrent(self, requests: list[dict[str, Any]]) -> list[CommandResult]:
        """Submit several commands at once; work groups form as workers
        free up (§3: "as soon as enough processes are available").

        Each request dict takes the :meth:`run` arguments: ``command``
        (required), ``params``, ``group_size``, ``tenant`` and
        ``command_kwargs``.  Commands whose combined group sizes exceed
        the worker pool queue behind each other.
        """
        if not requests:
            return []
        batch = [
            (
                self.new_request(
                    spec["command"], spec.get("params"), spec.get("group_size"),
                    spec.get("tenant") or "default",
                ),
                spec.get("command_kwargs") or {},
            )
            for spec in requests
        ]
        return self._run_batch(
            batch, f"run-concurrent[{len(batch)}]", n_requests=len(batch)
        )

    def new_request(
        self,
        command: str,
        params: dict[str, Any] | None = None,
        group_size: int | None = None,
        tenant: str = "default",
    ) -> CommandRequest:
        """A fresh request id with the session's defaults filled in."""
        return CommandRequest(
            next_request_id(), command, dict(params or {}),
            group_size=self.n_workers if group_size is None else group_size,
            tenant=tenant,
        )

    def submit(
        self,
        request: CommandRequest,
        *,
        parent_span: Any = None,
        command_kwargs: dict[str, Any] | None = None,
    ):
        """Process body: the one way a command enters the simulation.

        The request travels up the client link (charged on the link,
        not on any worker node), the scheduler runs it, and the body
        returns the scheduler's ``RunRecord`` once the client holds the
        command's final packet.  :meth:`run`, :meth:`run_concurrent`
        and the serving layer's backend all submit through here.
        """
        done = self.client.expect(request.request_id)
        yield from self.uplink.send(request)
        record = yield from self.scheduler.run_command(
            request.command,
            request.params,
            request.group_size,
            self.client.mailbox,
            request.request_id,
            command_kwargs=command_kwargs,
            parent_span=parent_span,
            tenant=request.tenant,
        )
        yield done
        return record

    def _run_batch(
        self,
        batch: list[tuple[CommandRequest, dict[str, Any]]],
        span_name: str,
        stamp_ttfa: bool = False,
        **span_attrs: Any,
    ) -> list[CommandResult]:
        """Submit every request of ``batch`` at once under one session
        span and simulate them all to completion.

        Worker breakdowns, DMS statistics, spans and metrics cannot be
        attributed to one command of an overlapping batch, so every
        result carries the whole batch's; for a one-request batch they
        are that request's own.
        """
        self.client.reset()
        breakdown_before = self._worker_breakdown()
        stats_before = self._dms_snapshot()
        t_submit = self.env.now
        span_mark = self.tracer.mark()
        span = self.tracer.begin(
            "session", name=span_name,
            node=self.cluster.scheduler_node.node_id, **span_attrs,
        )
        procs = [
            self.env.process(
                self.submit(request, parent_span=span, command_kwargs=kwargs),
                name=f"run-{request.command}-{request.request_id}",
            )
            for request, kwargs in batch
        ]
        records = [self.env.run(until=proc) for proc in procs]
        breakdown_after = self._worker_breakdown()
        stats_after = self._dms_snapshot()
        breakdown = self._diff_stats(breakdown_before, breakdown_after)
        dms = self._diff_stats(stats_before, stats_after)

        results = []
        end_attrs: dict[str, float] = {}
        for (request, _), record in zip(batch, records):
            request_id = request.request_id
            packets = self.client.packets_by_request[request_id]
            payloads = self.client.payloads_by_request[request_id]
            final = next(p.time for p in packets if p.final)
            first = self.client.first_data_time_of(request_id)
            approx = self.client.first_approximation_time(
                request.group_size, request_id=request_id
            )
            total_runtime = final - t_submit
            latency = (first - t_submit) if first is not None else total_runtime
            ttfa_s = (approx - t_submit) if approx is not None else latency
            # Only a progressive single run stamps its span: other
            # traces (and their committed golden fingerprints) must not
            # change.
            if stamp_ttfa and approx is not None:
                end_attrs = {"ttfa_s": ttfa_s}
            packet_times = [p.time - t_submit for p in packets]
            self._record_run_metrics(
                request.command, total_runtime, latency, packet_times,
                degraded=record.degraded, ttfa=ttfa_s,
            )
            results.append(CommandResult(
                command=request.command,
                params=request.params,
                group_size=request.group_size,
                total_runtime=total_runtime,
                latency=latency,
                n_packets=len(packets),
                packet_times=packet_times,
                geometry=TriangleMesh.merge(
                    [p for p in payloads if isinstance(p, TriangleMesh)]
                ),
                payloads=list(payloads),
                breakdown=dict(breakdown),
                dms=dict(dms),
                strategy_decisions=dict(self.scheduler.server.selector.decisions),
                tracer=self.tracer if self.tracer.enabled else None,
                degraded=record.degraded,
                failed_shares=list(record.failed_shares),
                planned_units=record.planned_units,
                recovery={
                    "retries": record.retries,
                    "reassignments": record.reassignments,
                },
                queue_wait_s=record.queue_wait_s,
                tenant=request.tenant,
                ttfa_s=ttfa_s,
            ))
        self.tracer.end(span, **end_attrs)
        spans = self.tracer.since(span_mark)
        metrics = self.metrics.snapshot()
        for result in results:
            result.spans = spans
            result.metrics = metrics
        return results

    # ------------------------------------------------------------ helpers
    #: packet inter-arrival buckets [sim s] — streaming cadences sit in
    #: the millisecond range, well below command latencies.
    _INTERARRIVAL_BUCKETS = (
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    )

    def _record_run_metrics(
        self,
        command: str,
        total_runtime: float,
        latency: float,
        packet_times: list[float],
        degraded: bool = False,
        ttfa: float | None = None,
    ) -> None:
        """Feed one finished run into the unified metrics registry."""
        m = self.metrics
        m.counter(
            "viracocha_commands_total", {"command": command},
            help="commands executed by this session",
        ).inc()
        if degraded:
            m.counter(
                "viracocha_commands_degraded_total", {"command": command},
                help="commands that served a partial (degraded) result",
            ).inc()
        for action, count in sorted(self.scheduler.recovery_stats.items()):
            m.counter(
                "viracocha_recovery_actions_total", {"action": action},
                help="scheduler recovery actions (session totals)",
            ).set(count)
        m.histogram(
            "viracocha_command_runtime_seconds",
            help="submit-to-final-package runtime [sim s]",
        ).observe(total_runtime)
        m.histogram(
            "viracocha_command_latency_seconds",
            help="submit-to-first-data latency [sim s]",
        ).observe(latency)
        m.histogram(
            "viracocha_command_ttfa_seconds",
            help="submit-to-first-complete-approximation (TTFA) [sim s]; "
                 "equals latency for non-progressive commands",
        ).observe(latency if ttfa is None else ttfa)
        interarrival = m.histogram(
            "viracocha_packet_interarrival_seconds",
            buckets=self._INTERARRIVAL_BUCKETS,
            help="gaps between result packets at the client [sim s]",
        )
        for earlier, later in zip(packet_times, packet_times[1:]):
            interarrival.observe(later - earlier)
        for worker in self.scheduler.workers:
            worker.proxy.stats.publish(m, node=str(worker.node.node_id))
        self.scheduler.aggregate_dms_stats().publish(m, node="all")
        self.scheduler.server.publish_metrics(m)
        self.scheduler.server.selector.publish_metrics(m)
        m.counter(
            "viracocha_spans_dropped_total",
            help="spans evicted by the tracer ring buffer (max_spans cap)",
        ).set(self.tracer.dropped)
        m.gauge(
            "viracocha_span_ring_high_water",
            help="most spans ever resident in the tracer ring at once",
        ).set(self.tracer.high_water)

    def _worker_breakdown(self) -> dict[str, float]:
        agg = NodeBreakdown()
        for node in self.cluster.worker_nodes:
            agg.add(node.breakdown)
        return {
            "compute": agg.compute,
            "read": agg.read,
            "send": agg.send,
            "other": agg.other,
        }

    def _dms_snapshot(self) -> dict[str, float]:
        agg = self.scheduler.aggregate_dms_stats()
        return {
            "requests": agg.requests,
            "hits": agg.hits,
            "misses": agg.misses,
            "prefetches_issued": agg.prefetches_issued,
            "prefetches_useful": agg.prefetches_useful,
            "misses_covered": agg.misses_covered,
            "bytes_loaded": agg.bytes_loaded,
        }

    @staticmethod
    def _diff_stats(before: dict, after: dict) -> dict:
        return {k: after[k] - before[k] for k in after}

    def clear_caches(self) -> None:
        """Return every proxy to a cold-cache state."""
        self.scheduler.clear_caches()

    def warm_cache(self, command: str, params: dict[str, Any] | None = None,
                   group_size: int | None = None, **command_kwargs) -> None:
        """Issue one call in advance so measurements run on cached data,
        exactly as the paper's methodology prescribes (§7)."""
        self.run(command, params, group_size, **command_kwargs)
