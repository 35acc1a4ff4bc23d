"""Trace exporter: Chrome ``trace_event`` JSON.

The Chrome format loads directly in ``about:tracing`` / Perfetto: one
"process" per simulated node (the scheduler node and each worker node),
demand work on thread 0 and background prefetch I/O on thread 1, so a
run renders as the per-worker Gantt the paper's evaluation reasons
about.  Every event is derived from finished spans: complete (``X``)
events for the spans themselves (fault markers are zero-duration ones),
flow (``s``/``f``) arrows for causality, and per-node metadata (``M``).
All timestamps are simulated seconds converted to microseconds.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .spans import Span, SpanTracer

__all__ = [
    "flow_events",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: span kinds that run as background I/O, rendered on their own thread
#: lane so overlapping demand spans keep proper nesting.
_BACKGROUND_KINDS = {"dms-prefetch"}

_SECONDS_TO_US = 1e6


def _thread_for(span: Span) -> int:
    if span.kind in _BACKGROUND_KINDS:
        return 1
    if span.attrs.get("demand") is False:
        # strategy-loads issued by the prefetcher live on the
        # background lane with their parent prefetch span.
        return 1
    return 0


def _flow_pair(
    name: str, flow_id: int, src: Span, dst: Span
) -> list[dict[str, Any]]:
    """One ``s``/``f`` flow-event pair from ``src`` to ``dst``.

    The start event must sit inside the source slice and the finish
    inside the destination slice, so Chrome/Perfetto draws the arrow
    between the two bars; ``bp: "e"`` binds to the enclosing slice.
    """
    ts_s = min(max(dst.t_start, src.t_start), src.t_end)
    return [
        {
            "name": name, "cat": "flow", "ph": "s", "id": flow_id,
            "ts": round(ts_s * _SECONDS_TO_US, 3),
            "pid": src.node, "tid": _thread_for(src),
        },
        {
            "name": name, "cat": "flow", "ph": "f", "bp": "e", "id": flow_id,
            "ts": round(dst.t_start * _SECONDS_TO_US, 3),
            "pid": dst.node, "tid": _thread_for(dst),
        },
    ]


def flow_events(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Causality arrows for ``chrome://tracing`` / Perfetto.

    Three kinds of edges, so a trace shows *why* a bar starts rather
    than just parallel lanes:

    * ``dispatch`` — cross-node parent → child (scheduler ``command``
      span to each ``worker`` share on its own node);
    * ``dms`` — a DMS request (``dms-lookup``) to the strategy-load /
      transfer it forced under the same ``load`` parent;
    * ``collect`` — each worker's share-transfer ``stream-packet`` to
      the ``merge`` span that consumed it at the master.

    Flow ids are the destination span id (unique per edge kind offset),
    so arrows stay stable across exports of the same trace.
    """
    finished = [s for s in spans if s.t_end is not None]
    by_id = {s.span_id: s for s in finished}
    events: list[dict[str, Any]] = []
    merges_by_parent: dict[int | None, list[Span]] = {}
    for span in finished:
        if span.kind == "merge":
            merges_by_parent.setdefault(span.parent_id, []).append(span)
    for span in finished:
        parent = by_id.get(span.parent_id)
        if parent is None:
            continue
        # dispatch: the scheduler handing work to another node.
        if span.node != parent.node:
            events.extend(_flow_pair("dispatch", span.span_id, parent, span))
        # dms: request -> the transfer it triggered (same load parent,
        # lookup strictly before the strategy-load starts).
        if span.kind == "dms-strategy-load":
            for sibling in finished:
                if (
                    sibling.kind == "dms-lookup"
                    and sibling.parent_id == span.parent_id
                    and sibling.t_end <= span.t_start
                ):
                    events.extend(
                        _flow_pair("dms", 1_000_000 + span.span_id, sibling, span)
                    )
                    break
        # collect: a share transfer feeding its command's merge.
        if span.kind == "stream-packet" and span.attrs.get("share"):
            for merge in merges_by_parent.get(span.parent_id, ()):
                if merge.node != span.node and merge.t_start >= span.t_end:
                    events.extend(
                        _flow_pair("collect", 2_000_000 + span.span_id, span, merge)
                    )
                    break
    return events


def to_chrome_trace(
    tracer: SpanTracer,
    node_names: dict[int, str] | None = None,
) -> dict[str, Any]:
    """Build a Chrome ``trace_event`` document from recorded spans.

    Unfinished spans are skipped (a trace export mid-run is valid but
    partial).
    """
    events: list[dict[str, Any]] = []
    nodes = set()
    finished = tracer.finished()
    events.extend(flow_events(finished))
    for span in finished:
        nodes.add(span.node)
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": round(span.t_start * _SECONDS_TO_US, 3),
                "dur": round((span.t_end - span.t_start) * _SECONDS_TO_US, 3),
                "pid": span.node,
                "tid": _thread_for(span),
                "args": args,
            }
        )
    metadata: list[dict[str, Any]] = []
    for node in sorted(nodes):
        if node_names and node in node_names:
            label = node_names[node]
        elif node == 0:
            label = "node 0 (scheduler)"
        else:
            label = f"node {node} (worker)"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": node,
                "tid": 0,
                "args": {"name": label},
            }
        )
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": node,
                "tid": 0,
                "args": {"name": "demand"},
            }
        )
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": node,
                "tid": 1,
                "args": {"name": "prefetch"},
            }
        )
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    tracer: SpanTracer,
    node_names: dict[int, str] | None = None,
) -> dict[str, Any]:
    doc = to_chrome_trace(tracer, node_names)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return doc
