"""Unified observability layer: spans, metrics, analysis, and export.

The measurement substrate for every performance claim in this repo:

* :mod:`repro.obs.spans` — hierarchical timed intervals over the
  simulated cluster (session -> command -> worker -> load/compute/
  merge/stream-packet, plus the DMS's lookup/strategy-load/prefetch);
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket histograms into which the DMS statistics publish;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  Perfetto / ``about:tracing``) with causal flow arrows, and a
  Prometheus-style text exposition;
* :mod:`repro.obs.critical_path` — span-DAG critical-path extraction
  and per-phase wall-time attribution (where did the seconds go?);
* :mod:`repro.obs.slo` — declarative SLOs against the paper's 100 ms
  interaction criterion, with streaming quantiles, error budgets and
  burn rates over simulated time;
* :mod:`repro.obs.sentry` — the perf regression sentry comparing a
  fresh measurement against a committed baseline (``repro slo
  --check`` in CI).

Profiling is ``cProfile`` on both clocks (``repro profile``, with
``--executor`` for the real path, where every pool worker profiles its
own shares and the parent merges their stats); it has no module here.

``ViracochaSession`` wires spans and metrics up by default and attaches
the populated tracer and a metrics snapshot to every ``CommandResult``;
the analysis modules consume those results after the fact.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    render_prometheus,
)
from .spans import NULL_SPAN, NULL_TRACER, Span, SpanTracer
from .export import (
    flow_events,
    to_chrome_trace,
    write_chrome_trace,
)
from .critical_path import (
    PHASES,
    CriticalPathReport,
    PhaseSegment,
    analyze_result,
    analyze_spans,
    critical_segments,
    publish_phase_metrics,
)
from .slo import (
    SLODefinition,
    SLOStatus,
    SLOTracker,
    default_slos,
)

__all__ = [
    "Span",
    "SpanTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "render_prometheus",
    "flow_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "PHASES",
    "CriticalPathReport",
    "PhaseSegment",
    "analyze_result",
    "analyze_spans",
    "critical_segments",
    "publish_phase_metrics",
    "SLODefinition",
    "SLOStatus",
    "SLOTracker",
    "default_slos",
]
