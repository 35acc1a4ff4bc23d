"""SLO definitions, streaming tracker, error budgets and burn rates."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.slo import SLODefinition, SLOTracker, default_slos


def _latency_slo(threshold=0.1, target=0.9, command_class="*"):
    return SLODefinition(
        name="lat", metric="latency", threshold=threshold,
        target=target, command_class=command_class,
    )


def test_definition_validation():
    with pytest.raises(ValueError):
        SLODefinition(name="x", metric="jitter", threshold=1.0)
    with pytest.raises(ValueError):
        SLODefinition(name="x", metric="latency", threshold=1.0, target=0.0)
    with pytest.raises(ValueError):
        SLODefinition(name="x", metric="latency", threshold=1.0, target=1.5)


def test_command_class_fnmatch():
    slo = _latency_slo(command_class="iso-*")
    assert slo.matches("iso-dataman")
    assert slo.matches("iso-simple")
    assert not slo.matches("vortex-dataman")


def test_duplicate_slo_names_rejected():
    with pytest.raises(ValueError):
        SLOTracker([_latency_slo(), _latency_slo()])


def test_attainment_and_budget_arithmetic():
    tracker = SLOTracker([_latency_slo(threshold=0.1, target=0.9)])
    # 10 observations, exactly one bad: right on target.
    for i in range(9):
        tracker.observe("iso", latency=0.05, runtime=1.0)
    tracker.observe("iso", latency=0.5, runtime=1.0)
    (st,) = tracker.status("command")
    assert st.total == 10 and st.good == 9
    assert st.attainment == pytest.approx(0.9)
    assert st.met
    assert st.error_budget == pytest.approx(1.0)
    assert st.budget_remaining == pytest.approx(0.0)
    assert st.burn_rate == pytest.approx(1.0)


def test_burn_rate_over_budget():
    tracker = SLOTracker([_latency_slo(threshold=0.1, target=0.9)])
    for i in range(4):
        tracker.observe("iso", latency=1.0, runtime=1.0)
    (st,) = tracker.status("command")
    assert not st.met
    assert st.burn_rate == pytest.approx(10.0)
    assert st.budget_remaining < 0


def test_per_tenant_and_overall_rollups():
    tracker = SLOTracker([_latency_slo()])
    tracker.observe("iso", latency=0.01, runtime=1.0, tenant="alice")
    tracker.observe("iso", latency=0.9, runtime=1.0, tenant="bob")
    by_tenant = {st.key: st for st in tracker.status("tenant")}
    assert by_tenant["alice"].attainment == 1.0
    assert by_tenant["bob"].attainment == 0.0
    overall = tracker.overall("lat")
    assert overall.total == 2 and overall.good == 1
    with pytest.raises(KeyError):
        tracker.overall("nope")


def test_degraded_metric_ignores_latency():
    slo = SLODefinition(name="complete", metric="degraded", threshold=0.0,
                        target=0.5)
    tracker = SLOTracker([slo])
    tracker.observe("iso", latency=99.0, runtime=99.0, degraded=False)
    tracker.observe("iso", latency=0.0, runtime=0.0, degraded=True)
    (st,) = tracker.status("command")
    assert st.good == 1 and st.bad == 1
    # Degraded SLOs carry no value histogram: quantiles read 0.
    assert st.p50 == 0.0


def test_quantiles_from_observations():
    tracker = SLOTracker([_latency_slo(threshold=10.0)])
    for i in range(100):
        tracker.observe("iso", latency=0.001 + i * 0.0001, runtime=1.0)
    (st,) = tracker.status("command")
    assert 0.001 <= st.p50 <= st.p95 <= st.p99 <= 0.05


def test_observe_result_uses_command_result_shape():
    class FakeResult:
        command = "iso-dataman"
        latency = 0.05
        total_runtime = 2.0
        packet_times = [0.05, 1.0, 2.0]
        degraded = False

    tracker = SLOTracker(default_slos())
    tracker.observe_result(FakeResult())
    rows = tracker.status("command")
    assert {st.slo.name for st in rows} == {
        "interactive-response", "interactive-first-frame", "complete-results"
    }
    assert all(st.key == "iso-dataman" for st in rows)
    assert tracker.all_met()


def test_default_slos_track_interaction_criteria():
    from repro.viz.client import InteractionCriteria

    slos = {s.name: s for s in default_slos()}
    assert slos["interactive-response"].threshold == pytest.approx(
        InteractionCriteria().max_response_time_s
    )
    tight = InteractionCriteria(max_response_time_s=0.02)
    assert {s.name: s for s in tight.slos()}[
        "interactive-response"
    ].threshold == pytest.approx(0.02)


def test_format_report_and_publish_metrics():
    tracker = SLOTracker([_latency_slo()])
    tracker.observe("iso", latency=0.01, runtime=1.0)
    tracker.observe("iso", latency=0.9, runtime=1.0)
    text = tracker.format_report("command")
    assert "SLO report" in text and "| lat" in text
    registry = MetricsRegistry()
    tracker.publish_metrics(registry)
    snap = registry.snapshot()
    assert any("viracocha_slo_attainment" in k for k in snap)
    assert any("viracocha_slo_burn_rate" in k for k in snap)
    assert any("viracocha_slo_quantile_seconds" in k for k in snap)


def test_chaos_bridge_helpers():
    from repro.faults import degraded_share_rate, track_slos

    class FakeResult:
        command = "iso-dataman"
        latency = 0.01
        total_runtime = 1.0
        packet_times = [1.0]
        degraded = True
        group_size = 4
        planned_units = 4
        failed_shares = [2]

    rate = degraded_share_rate([FakeResult(), FakeResult()])
    assert rate == pytest.approx(2 / 8)
    tracker = track_slos([FakeResult()])
    rows = {st.slo.name: st for st in tracker.status("command")}
    assert rows["complete-results"].bad == 1
    assert degraded_share_rate([]) == 0.0
