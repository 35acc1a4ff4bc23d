"""The client-facing session facade.

:class:`ViracochaSession` wires a synthetic (or on-disk) dataset, the
simulated cluster, the DMS and the scheduler together and exposes one
call — :meth:`run` — that submits a command exactly the way ViSTA
FlowLib would: a TCP request to the scheduler, parallel extraction on
the workers, packets back to the visualization client.

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
from .channels import ClientUplink, SimTCPChannel
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
    breakdown: dict[str, float]  #: compute/read/send/other seconds (workers)
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
        from ..viz.mesh import TriangleMesh

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
        #: client → scheduler direction of the TCP link; the serving
        #: layer submits through the same uplink as :meth:`run`.
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
        params = dict(params or {})
        group_size = group_size if group_size is not None else self.n_workers
        request_id = next_request_id()

        self.client.reset()
        done = self.client.start_listening()
        breakdown_before = self._worker_breakdown()
        stats_before = self._dms_snapshot()
        t_submit = self.env.now
        span_mark = self.tracer.mark()
        session_span = self.tracer.begin(
            "session", name=f"run-{command}",
            node=self.cluster.scheduler_node.node_id,
            request=request_id, command=command,
        )

        def submit():
            # Client → scheduler request over TCP (charged on the link,
            # not attributed to any worker node).
            request = CommandRequest(request_id, command, params, tenant=tenant)
            yield from self.uplink.send(request)
            record = yield from self.scheduler.run_command(
                command,
                params,
                group_size,
                self.client.mailbox,
                request_id,
                command_kwargs=command_kwargs,
                parent_span=session_span,
                tenant=tenant,
            )
            return record

        proc = self.env.process(submit(), name=f"run-{command}")
        record = self.env.run(until=proc)
        self.env.run(until=done)

        breakdown_after = self._worker_breakdown()
        stats_after = self._dms_snapshot()
        first = self.client.first_data_time
        final = self.client.final_time
        if final is None:  # pragma: no cover - defensive
            raise RuntimeError(f"command {command!r} produced no final packet")
        total_runtime = final - t_submit
        latency = (first - t_submit) if first is not None else total_runtime
        approx = self.client.first_approximation_time(group_size)
        ttfa_s = (approx - t_submit) if approx is not None else latency
        # Only progressive runs stamp the span: non-progressive traces
        # (and their committed golden fingerprints) must not change.
        if approx is not None:
            self.tracer.end(session_span, ttfa_s=ttfa_s)
        else:
            self.tracer.end(session_span)
        packet_times = [p.time - t_submit for p in self.client.packets]
        self._record_run_metrics(
            command, total_runtime, latency, packet_times,
            degraded=record.degraded, ttfa=ttfa_s,
        )
        return CommandResult(
            command=command,
            params=params,
            group_size=group_size,
            total_runtime=total_runtime,
            latency=latency,
            n_packets=len(self.client.packets),
            packet_times=packet_times,
            geometry=self.client.merged_geometry(),
            payloads=list(self.client.payloads),
            breakdown={
                k: breakdown_after[k] - breakdown_before[k] for k in breakdown_after
            },
            dms=self._diff_stats(stats_before, stats_after),
            strategy_decisions=dict(self.scheduler.server.selector.decisions),
            spans=self.tracer.since(span_mark),
            metrics=self.metrics.snapshot(),
            tracer=self.tracer if self.tracer.enabled else None,
            degraded=record.degraded,
            failed_shares=list(record.failed_shares),
            planned_units=record.planned_units,
            recovery={
                "retries": record.retries,
                "reassignments": record.reassignments,
            },
            queue_wait_s=record.queue_wait_s,
            tenant=tenant,
            ttfa_s=ttfa_s,
        )

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

    # ------------------------------------------------------- concurrency
    def run_concurrent(self, requests: list[dict[str, Any]]) -> list[CommandResult]:
        """Submit several commands at once; work groups form as workers
        free up (§3: "as soon as enough processes are available").

        Each request dict takes the :meth:`run` arguments: ``command``
        (required), ``params``, ``group_size``.  Commands whose combined
        group sizes exceed the worker pool queue behind each other.
        Per-node breakdowns cannot be attributed to a single command in
        this mode, so results carry empty ``breakdown``/``dms`` fields.
        """
        if not requests:
            return []
        self.client.reset()
        t_submit = self.env.now
        span_mark = self.tracer.mark()
        batch_span = self.tracer.begin(
            "session", name=f"run-concurrent[{len(requests)}]",
            node=self.cluster.scheduler_node.node_id,
            n_requests=len(requests),
        )
        submissions = []
        for spec in requests:
            command = spec["command"]
            params = dict(spec.get("params") or {})
            group_size = spec.get("group_size") or self.n_workers
            tenant = spec.get("tenant") or "default"
            request_id = next_request_id()
            done = self.client.expect(request_id)

            def submit(command=command, params=params, group_size=group_size,
                       request_id=request_id, tenant=tenant):
                request = CommandRequest(
                    request_id, command, params, tenant=tenant
                )
                yield from self.uplink.send(request)
                record = yield from self.scheduler.run_command(
                    command, params, group_size, self.client.mailbox, request_id,
                    parent_span=batch_span, tenant=tenant,
                )
                return record

            proc = self.env.process(submit(), name=f"run-{command}-{request_id}")
            submissions.append(
                (command, params, group_size, tenant, request_id, done, proc)
            )

        results = []
        for command, params, group_size, tenant, request_id, done, proc in submissions:
            record = self.env.run(until=proc)
            self.env.run(until=done)
            packets = self.client.packets_by_request.get(request_id, [])
            payloads = self.client.payloads_by_request.get(request_id, [])
            # Per-request accounting: interleaved tenants must not
            # report each other's first packet as their own latency.
            first = self.client.first_data_time_of(request_id)
            final = next((p.time for p in packets if p.final), self.env.now)
            approx = self.client.first_approximation_time(
                group_size, request_id=request_id
            )
            latency = (first if first is not None else final) - t_submit
            ttfa_s = (approx - t_submit) if approx is not None else latency
            from ..viz.mesh import TriangleMesh

            meshes = [p for p in payloads if isinstance(p, TriangleMesh)]
            self._record_run_metrics(
                command,
                final - t_submit,
                latency,
                [p.time - t_submit for p in packets],
                degraded=record.degraded,
                ttfa=ttfa_s,
            )
            results.append(
                CommandResult(
                    command=command,
                    params=params,
                    group_size=group_size,
                    total_runtime=final - t_submit,
                    latency=latency,
                    n_packets=len(packets),
                    packet_times=[p.time - t_submit for p in packets],
                    geometry=TriangleMesh.merge(meshes),
                    payloads=list(payloads),
                    breakdown={},
                    dms={},
                    strategy_decisions=dict(
                        self.scheduler.server.selector.decisions
                    ),
                    tracer=self.tracer if self.tracer.enabled else None,
                    degraded=record.degraded,
                    failed_shares=list(record.failed_shares),
                    planned_units=record.planned_units,
                    recovery={
                        "retries": record.retries,
                        "reassignments": record.reassignments,
                    },
                    queue_wait_s=record.queue_wait_s,
                    tenant=tenant,
                    ttfa_s=ttfa_s,
                )
            )
        self.tracer.end(batch_span)
        # Spans are shared by the whole batch (per-command attribution
        # is ambiguous under concurrency); every result sees the slice.
        batch_spans = self.tracer.since(span_mark)
        batch_metrics = self.metrics.snapshot()
        for result in results:
            result.spans = batch_spans
            result.metrics = batch_metrics
        return results

    def clear_caches(self) -> None:
        """Return every proxy to a cold-cache state."""
        self.scheduler.clear_caches()

    def warm_cache(self, command: str, params: dict[str, Any] | None = None,
                   group_size: int | None = None, **command_kwargs) -> None:
        """Issue one call in advance so measurements run on cached data,
        exactly as the paper's methodology prescribes (§7)."""
        self.run(command, params, group_size, **command_kwargs)
