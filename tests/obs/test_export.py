"""Exporter tests: Chrome trace_event JSON."""

import json

import pytest

from repro.obs import (
    SpanTracer,
    to_chrome_trace,
    write_chrome_trace,
)


def _tiny_tracer():
    tracer = SpanTracer()
    cmd = tracer.begin("command", "iso", node=0, t=0.0)
    w = tracer.begin("worker", "iso[0]", node=1, parent=cmd, t=0.1)
    load = tracer.begin("load", "block-0", node=1, parent=w, t=0.1)
    tracer.end(load, t=0.4)
    pf = tracer.begin("dms-prefetch", "block-1", node=1, parent=load, t=0.4)
    tracer.end(pf, t=0.9)
    tracer.end(w, t=0.6)
    tracer.end(cmd, t=0.7)
    crash = tracer.begin("fault-crash", node=1, t=0.65, worker=0)
    tracer.end(crash, t=0.65)
    unfinished = tracer.begin("load", "never-ends", node=2, t=0.7)
    assert not unfinished.finished
    return tracer


def test_chrome_trace_structure():
    doc = to_chrome_trace(_tiny_tracer())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    # Spans are the only events: complete, flow and metadata.
    assert {e["ph"] for e in events} == {"X", "s", "f", "M"}
    # Five finished spans; the unfinished one is skipped.
    assert len(complete) == 5
    assert {e["cat"] for e in complete} == {
        "command", "worker", "load", "dms-prefetch", "fault-crash"
    }
    cmd = next(e for e in complete if e["cat"] == "command")
    assert cmd["ts"] == 0.0 and cmd["dur"] == 700000.0  # 0.7 s in us
    assert cmd["pid"] == 0 and cmd["tid"] == 0
    # Prefetch runs on the background thread lane.
    pf = next(e for e in complete if e["cat"] == "dms-prefetch")
    assert pf["tid"] == 1
    # Parent links survive in args.
    w = next(e for e in complete if e["cat"] == "worker")
    assert w["args"]["parent_id"] == cmd["args"]["span_id"]
    # A fault marker is a zero-duration complete event with its attrs.
    crash = next(e for e in complete if e["cat"] == "fault-crash")
    assert crash["ts"] == 650000.0 and crash["dur"] == 0.0
    assert crash["pid"] == 1 and crash["args"]["worker"] == 0
    # Metadata names both nodes and both thread lanes.
    names = {(e["name"], e["pid"], e["tid"]): e["args"]["name"] for e in meta}
    assert names[("process_name", 0, 0)] == "node 0 (scheduler)"
    assert names[("process_name", 1, 0)] == "node 1 (worker)"
    assert names[("thread_name", 1, 1)] == "prefetch"


def test_chrome_trace_node_name_override():
    doc = to_chrome_trace(_tiny_tracer(), node_names={0: "master"})
    meta = [e for e in doc["traceEvents"] if e["name"] == "process_name"]
    assert {e["args"]["name"] for e in meta if e["pid"] == 0} == {"master"}


def test_write_chrome_trace_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    doc = write_chrome_trace(str(path), _tiny_tracer())
    loaded = json.loads(path.read_text())
    assert loaded == doc


# ------------------------------------------------------------------ flows
def _raw_span(span_id, kind, node, t0, t1, parent=None, **attrs):
    from repro.obs import Span

    return Span(
        span_id=span_id, kind=kind, name=kind, node=node,
        t_start=t0, t_end=t1, parent_id=parent, attrs=attrs or None,
    )


def _pairs(events):
    """Group s/f events by flow id: {id: {"s": event, "f": event}}."""
    out = {}
    for e in events:
        out.setdefault(e["id"], {})[e["ph"]] = e
    return out


def test_dispatch_flow_links_cross_node_parent_child():
    from repro.obs import flow_events

    cmd = _raw_span(0, "command", 0, 0.0, 1.0)
    remote = _raw_span(1, "worker", 3, 0.2, 0.8, parent=0)
    local = _raw_span(2, "merge", 0, 0.8, 0.9, parent=0)
    flows = _pairs(flow_events([cmd, remote, local]))
    # One dispatch edge: command@node0 -> worker@node3; the same-node
    # merge child draws no arrow.
    assert set(flows) == {1}
    start, finish = flows[1]["s"], flows[1]["f"]
    assert start["pid"] == 0 and finish["pid"] == 3
    assert finish["bp"] == "e"
    # The start ts sits inside the source slice, the finish at the
    # destination's start (both in microseconds).
    assert 0.0 <= start["ts"] <= 1.0 * 1e6
    assert finish["ts"] == 0.2 * 1e6


def test_dms_flow_links_lookup_to_strategy_load():
    from repro.obs import flow_events

    load = _raw_span(0, "load", 1, 0.0, 1.0)
    lookup = _raw_span(1, "dms-lookup", 1, 0.0, 0.2, parent=0)
    strat = _raw_span(2, "dms-strategy-load", 1, 0.3, 0.9, parent=0,
                      strategy="fileserver")
    flows = _pairs(flow_events([load, lookup, strat]))
    assert 1_000_000 + 2 in flows
    pair = flows[1_000_000 + 2]
    assert pair["s"]["name"] == pair["f"]["name"] == "dms"
    assert pair["f"]["ts"] == pytest.approx(0.3 * 1e6)


def test_collect_flow_links_share_packet_to_merge():
    from repro.obs import flow_events

    cmd = _raw_span(0, "command", 0, 0.0, 2.0)
    packet = _raw_span(1, "stream-packet", 2, 0.5, 1.0, parent=0, share=1)
    merge = _raw_span(2, "merge", 0, 1.2, 1.5, parent=0)
    flows = _pairs(flow_events([cmd, packet, merge]))
    collect = flows[2_000_000 + 1]
    assert collect["s"]["pid"] == 2 and collect["f"]["pid"] == 0
    # A client packet (no share attr) draws no collect arrow.
    client = _raw_span(3, "stream-packet", 2, 0.5, 1.0, parent=0)
    assert 2_000_000 + 3 not in _pairs(flow_events([cmd, client, merge]))


def test_flow_events_skip_unfinished_spans():
    from repro.obs import flow_events

    cmd = _raw_span(0, "command", 0, 0.0, 1.0)
    open_child = _raw_span(1, "worker", 2, 0.2, None, parent=0)
    assert flow_events([cmd, open_child]) == []


def test_chrome_trace_includes_flow_events():
    doc = to_chrome_trace(_tiny_tracer())
    flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
    # command@node0 -> worker@node1 is the one cross-node edge.
    assert {e["ph"] for e in flows} == {"s", "f"}
    assert {e["name"] for e in flows} == {"dispatch"}
