"""Critical-path extraction and phase attribution.

Unit tests drive :func:`critical_segments` / :func:`phase_of_segment`
over hand-built span DAGs where the exact answer is known; the
integration tests assert the acceptance criterion — the phase
attribution explains >= 95 % of wall clock for all four headline
commands on a real simulated run.
"""

import pytest

from repro.obs import MetricsRegistry, Span
from repro.obs.critical_path import (
    PHASES,
    analyze_result,
    analyze_spans,
    critical_segments,
    phase_of_segment,
    publish_phase_metrics,
)

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}


def _span(span_id, kind, t0, t1, parent=None, name=None, node=0, **attrs):
    return Span(
        span_id=span_id, kind=kind, name=name or kind, node=node,
        t_start=t0, t_end=t1, parent_id=parent, attrs=attrs or None,
    )


def _children(spans):
    from repro.obs.critical_path import _index_children

    return _index_children(spans)


# ------------------------------------------------------------------ unit
def test_single_span_is_its_own_path():
    root = _span(0, "session", 0.0, 10.0)
    chain = critical_segments(root, _children([root]))
    assert chain == [(0.0, 10.0, root)]


def test_last_finishing_child_owns_the_tail():
    root = _span(0, "session", 0.0, 10.0)
    fast = _span(1, "worker", 1.0, 4.0, parent=0)
    slow = _span(2, "worker", 1.0, 9.0, parent=0)
    chain = critical_segments(root, _children([root, fast, slow]))
    # head gap (root) -> slow child -> tail gap (root); the fast child
    # never gated the finish and must not appear.
    assert [(t0, t1, s.span_id) for t0, t1, s in chain] == [
        (0.0, 1.0, 0), (1.0, 9.0, 2), (9.0, 10.0, 0),
    ]


def test_sequential_children_chain_back_to_front():
    root = _span(0, "command", 0.0, 10.0)
    a = _span(1, "worker", 1.0, 4.0, parent=0)
    b = _span(2, "merge", 5.0, 8.0, parent=0)
    chain = critical_segments(root, _children([root, a, b]))
    ids = [s.span_id for _, _, s in chain]
    assert ids == [0, 1, 0, 2, 0]  # gaps between children belong to root


def test_segments_partition_the_interval_exactly():
    root = _span(0, "session", 0.0, 20.0)
    spans = [root]
    spans.append(_span(1, "command", 1.0, 18.0, parent=0))
    spans.append(_span(2, "worker", 2.0, 12.0, parent=1))
    spans.append(_span(3, "worker", 2.0, 15.0, parent=1))
    spans.append(_span(4, "load", 3.0, 7.0, parent=3))
    spans.append(_span(5, "compute", 8.0, 14.0, parent=3))
    spans.append(_span(6, "merge", 15.0, 16.0, parent=1))
    chain = critical_segments(root, _children(spans))
    # Chronological, gap-free, covering [0, 20] exactly.
    assert chain[0][0] == 0.0 and chain[-1][1] == 20.0
    for (_, prev_end, _), (next_start, _, _) in zip(chain, chain[1:]):
        assert prev_end == pytest.approx(next_start)
    assert sum(t1 - t0 for t0, t1, _ in chain) == pytest.approx(20.0)


def test_nested_dms_spans_reach_the_path():
    root = _span(0, "worker", 0.0, 10.0)
    load = _span(1, "load", 1.0, 9.0, parent=0)
    lookup = _span(2, "dms-lookup", 1.0, 2.0, parent=1)
    strat = _span(3, "dms-strategy-load", 2.0, 9.0, parent=1,
                  strategy="fileserver")
    chain = critical_segments(root, _children([root, load, lookup, strat]))
    ids = [s.span_id for _, _, s in chain]
    assert 3 in ids and 2 in ids


def test_phase_of_strategy_load_splits_disk_from_wire():
    disk = _span(1, "dms-strategy-load", 0, 1, strategy="fileserver")
    wire = _span(2, "dms-strategy-load", 0, 1, strategy="node-transfer")
    coll = _span(3, "dms-strategy-load", 0, 1, strategy="collective")
    assert phase_of_segment(disk, 0, 1) == "load_disk"
    assert phase_of_segment(wire, 0, 1) == "load_wire"
    assert phase_of_segment(coll, 0, 1) == "load_wire"


def test_scheduler_gap_with_fault_marker_is_recovery():
    cmd = _span(0, "command", 0.0, 10.0)
    assert phase_of_segment(cmd, 4.0, 6.0, [(5.0, "fault-retry")]) == "recovery"
    assert phase_of_segment(cmd, 4.0, 6.0, [(7.0, "fault-retry")]) == "queue"
    assert phase_of_segment(cmd, 4.0, 6.0, ()) == "queue"


def test_analyze_spans_with_recovery_marker():
    spans = [
        _span(0, "session", 0.0, 10.0),
        _span(1, "worker", 0.0, 4.0, parent=0),
        # 4..8 is scheduler self-time containing a retry marker.
        _span(2, "fault-retry", 5.0, 5.0, parent=0),
        _span(3, "merge", 8.0, 10.0, parent=0),
    ]
    report = analyze_spans(spans, command="x")
    assert report.phase_seconds["recovery"] == pytest.approx(4.0)
    assert report.phase_seconds["compute"] == pytest.approx(4.0)
    assert report.phase_seconds["merge"] == pytest.approx(2.0)
    assert report.coverage == pytest.approx(1.0)


def test_analyze_spans_empty_and_unfinished():
    report = analyze_spans([], command="nothing")
    assert report.wall == 0.0 and report.coverage == 1.0
    open_span = Span(0, "session", "s", 0, 0.0, None)
    report = analyze_spans([open_span], command="open")
    assert report.segments == []


def test_report_format_lists_every_phase():
    spans = [_span(0, "session", 0.0, 1.0)]
    report = analyze_spans(spans, command="fmt")
    text = report.format()
    for phase in PHASES:
        assert phase in text
    assert "coverage" in text
    assert report.format_path().startswith("top critical-path segments")


def test_publish_phase_metrics_registers_series():
    spans = [
        _span(0, "session", 0.0, 2.0),
        _span(1, "worker", 0.0, 2.0, parent=0),
    ]
    report = analyze_spans(spans, command="iso-dataman")
    registry = MetricsRegistry()
    publish_phase_metrics(registry, report)
    snap = registry.snapshot()
    assert any("viracocha_phase_seconds" in k for k in snap)
    assert any("viracocha_phase_coverage" in k for k in snap)


# ----------------------------------------------------------- integration
@pytest.fixture(scope="module")
def four_command_results():
    from repro.bench.calibration import paper_cluster, paper_costs
    from repro.core.session import ViracochaSession
    from tests.conftest import cached_engine

    session = ViracochaSession(
        cached_engine(4, 2),
        cluster_config=paper_cluster(2),
        costs=paper_costs(),
    )
    specs = [
        ("iso-dataman", ISO),
        ("vortex-dataman", {"threshold": -0.5, "time_range": (0, 1)}),
        ("pathlines-dataman", {
            "seeds": [[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9]],
            "time_range": (0, 2), "max_steps": 40,
        }),
        ("cutplane", {"normal": (0.0, 0.0, 1.0), "offset": 0.8,
                      "time_range": (0, 1)}),
    ]
    return [session.run(name, params=params) for name, params in specs]


def test_all_four_commands_covered_at_95_percent(four_command_results):
    for result in four_command_results:
        report = analyze_result(result)
        assert report.coverage >= 0.95, (result.command, report.coverage)
        assert report.wall == pytest.approx(result.total_runtime)
        # Attribution only ever uses the fixed taxonomy.
        assert set(report.phase_seconds) <= set(PHASES)


def test_phase_seconds_sum_to_wall(four_command_results):
    for result in four_command_results:
        report = analyze_result(result)
        assert report.covered == pytest.approx(report.wall, rel=1e-9)


def test_fault_free_run_has_no_recovery_time(four_command_results):
    for result in four_command_results:
        report = analyze_result(result)
        assert report.phase_seconds.get("recovery", 0.0) == 0.0


def test_dominant_phase_is_sensible(four_command_results):
    by_command = {r.command: analyze_result(r) for r in four_command_results}
    # Cold extraction commands are bounded by compute or block I/O,
    # never by the merge/queue bookkeeping.
    for command, report in by_command.items():
        assert report.dominant_phase in {"compute", "load_disk", "load_wire"}, (
            command, report.phase_seconds,
        )
