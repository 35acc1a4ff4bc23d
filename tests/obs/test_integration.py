"""Observability through the full stack: spans, metrics, golden trace."""

import json
import re

import pytest

from repro.obs import to_chrome_trace, write_chrome_trace
from tests.conftest import paper_session

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}


@pytest.fixture(scope="module")
def iso_result():
    session = paper_session()
    result = session.run("iso-dataman", params=ISO)
    return session, result


def test_result_carries_spans_metrics_tracer(iso_result):
    session, result = iso_result
    assert result.tracer is session.tracer
    assert result.spans
    assert isinstance(result.metrics, dict)
    assert "viracocha_commands_total" in result.metrics
    assert "viracocha_command_latency_seconds" in result.metrics


def test_span_taxonomy_covers_paper_components(iso_result):
    _, result = iso_result
    kinds = {s.kind for s in result.spans}
    # The acceptance bar: load/compute/merge/stream plus the envelopes.
    for kind in (
        "session", "command", "worker",
        "load", "compute", "merge", "stream-packet",
        "dms-lookup", "dms-strategy-load", "dms-prefetch",
    ):
        assert kind in kinds, f"missing span kind {kind}"
    # Work happened on at least two worker lanes.
    worker_nodes = {s.node for s in result.spans if s.kind == "worker"}
    assert len(worker_nodes) >= 2


def test_span_nesting_containment(iso_result):
    session, result = iso_result
    tracer = session.tracer
    by_id = {s.span_id: s for s in result.spans}
    (root,) = [s for s in result.spans if s.parent_id is None]
    assert root.kind == "session"
    for span in result.spans:
        assert span.finished
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        if span.kind == "dms-prefetch":
            # Background I/O is causally linked but may outlive the
            # demand span that triggered it.
            assert parent.t_start <= span.t_start
        else:
            assert parent.t_start <= span.t_start and span.t_end <= parent.t_end, (
                f"{parent} does not contain {span}"
            )
    # Worker spans hang off the command span, loads off workers.
    (command,) = [s for s in result.spans if s.kind == "command"]
    for w in [s for s in result.spans if s.kind == "worker"]:
        assert w.parent_id == command.span_id
    for load in [s for s in result.spans if s.kind == "load"]:
        assert by_id[load.parent_id].kind == "worker"
    assert tracer.children(command)


def test_metrics_snapshot_has_dms_view(iso_result):
    _, result = iso_result
    snap = result.metrics
    series = {
        entry["labels"]["node"]: entry["value"]
        for entry in snap["viracocha_dms_requests_total"]
    }
    # Per-worker series plus the aggregate.
    assert "all" in series and "1" in series and "2" in series
    assert series["all"] == series["1"] + series["2"]
    assert "viracocha_dms_hit_rate" in snap
    assert "viracocha_dms_prefetch_accuracy" in snap
    assert "viracocha_dms_strategy_fitness" in snap
    hist = snap["viracocha_command_runtime_seconds"][0]
    assert hist["type"] == "histogram"
    assert hist["count"] == 1


def test_observe_false_disables_spans():
    session = paper_session(observe=False)
    result = session.run("iso-dataman", params=ISO)
    assert result.spans == []
    assert result.tracer is None
    assert result.geometry is not None  # the run itself still works


def test_streamed_run_has_packet_spans():
    session = paper_session()
    result = session.run(
        "iso-viewer",
        params={**ISO, "viewpoint": (0, 0, -5), "max_triangles": 200},
    )
    packets = [s for s in result.spans if s.kind == "stream-packet"]
    assert packets
    assert any(s.attrs.get("nbytes") for s in packets)


def test_chrome_trace_golden_determinism(tmp_path):
    """Identical tiny isosurface runs export byte-identical traces."""
    paths = []
    for i in range(2):
        session = paper_session()
        session.run("iso-dataman", params=ISO)
        path = tmp_path / f"run{i}.json"
        write_chrome_trace(str(path), session.tracer)
        paths.append(path)
    # Request IDs come from a process-global counter; normalize them.
    normalize = lambda text: re.sub(r'"request": \d+', '"request": N', text)
    golden, again = (normalize(p.read_text()) for p in paths)
    assert golden == again
    doc = json.loads(paths[0].read_text())
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["cat"] for e in complete} >= {
        "load", "compute", "merge", "stream-packet"
    }
    assert {e["pid"] for e in complete} >= {0, 1, 2}
    assert all(e["dur"] >= 0 for e in complete)


def test_trace_export_without_recorder(iso_result):
    session, _ = iso_result
    doc = to_chrome_trace(session.tracer)
    # Complete spans, process metadata, and causal flow arrows only:
    # spans are the one event log, so no instant events.
    assert all(e["ph"] in {"X", "M", "s", "f"} for e in doc["traceEvents"])
    flows = [e for e in doc["traceEvents"] if e["ph"] in {"s", "f"}]
    assert flows, "expected dispatch/dms/collect flow events"


def test_run_concurrent_shares_batch_observability():
    session = paper_session()
    results = session.run_concurrent(
        [
            {"command": "iso-dataman", "params": ISO},
            {"command": "iso-dataman", "params": ISO},
        ]
    )
    assert len(results) == 2
    for result in results:
        assert "session" in {s.kind for s in result.spans}
        assert result.metrics
    # Both commands appear under the shared batch slice.
    commands = [s for s in results[0].spans if s.kind == "command"]
    assert len(commands) == 2
