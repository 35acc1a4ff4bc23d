"""Scheduler recovery: timeouts, retries, reassignment, degraded results."""

import pytest

from repro.core.scheduler import RecoveryPolicy
from repro.faults import FaultInjector, FaultPlan, degraded_share_rate
from tests.conftest import paper_session

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 2)}
DYNAMIC_ISO = dict(ISO, schedule="dynamic", steal_batch=1)
PROGRESSIVE = {"isovalue": -0.3, "time_range": (0, 1), "max_levels": 3}


@pytest.fixture(scope="module")
def clean_iso():
    return paper_session(n_workers=3).run("iso-dataman", params=ISO)


def _bytes(geometry) -> bytes:
    return geometry.vertices.tobytes() + geometry.triangles.tobytes()


def _crash_session(clean, worker=1, downtime_factor=10.0, n_workers=3, t_crash=None):
    """A session whose ``worker`` dies mid-command and stays down."""
    session = paper_session(n_workers=n_workers)
    if t_crash is None:
        t_crash = 0.3 * clean.total_runtime
    plan = FaultPlan(seed=1).crash_worker(
        t_crash, worker=worker, downtime=downtime_factor * clean.total_runtime
    )
    FaultInjector(plan, session).install()
    return session


def test_single_crash_reassigns_and_merges_complete_result(clean_iso):
    """The ISSUE acceptance case: one dead worker, still a full merge."""
    session = _crash_session(clean_iso)
    result = session.run("iso-dataman", params=ISO)
    assert result.complete and not result.degraded
    assert result.failed_shares == []
    assert result.geometry.n_triangles == clean_iso.geometry.n_triangles
    assert result.geometry.area() == pytest.approx(
        clean_iso.geometry.area(), rel=1e-9
    )
    assert result.recovery["reassignments"] >= 1
    stats = session.scheduler.recovery_stats
    assert stats["reassignments"] >= 1
    assert stats["lost_shares"] == 0
    kinds = result.span_kinds()
    assert {"fault-crash", "fault-retry", "fault-reassign"} <= kinds


def test_streaming_crash_dedups_packets(clean_iso):
    """Worker 1 dies between its first and second packet; its share
    re-runs on a survivor, which re-sends the delivered packet under the
    same (request, unit, sequence) key — the client drops it."""
    clean_session = paper_session(n_workers=3)
    clean = clean_session.run("iso-progressive", params=PROGRESSIVE)
    (clean_packets,) = clean_session.client.packets_by_request.values()
    first, second = [
        p.time for p in clean_packets if p.worker_index == 1
    ][:2]
    session = _crash_session(clean_iso, t_crash=(first + second) / 2)
    result = session.run("iso-progressive", params=PROGRESSIVE)
    assert result.complete
    assert result.geometry.n_triangles == clean.geometry.n_triangles
    assert session.client.duplicates >= 1
    (packets,) = session.client.packets_by_request.values()
    final = [p for p in packets if p.final]
    assert len(final) == 1


def test_all_workers_dead_yields_degraded_not_hang(clean_iso):
    session = paper_session(n_workers=2)
    plan = FaultPlan(seed=2)
    for w in range(2):
        plan.crash_worker(0.2 * clean_iso.total_runtime, worker=w, downtime=0.0)
    FaultInjector(plan, session).install()
    result = session.run("iso-dataman", params=ISO)
    assert result.degraded and not result.complete
    assert sorted(result.failed_shares) == [0, 1]
    assert result.geometry.n_triangles == 0
    assert session.scheduler.recovery_stats["lost_shares"] == 2
    assert "fault-giveup" in result.span_kinds()
    assert "fault-degraded" in result.span_kinds()
    metrics = {
        entry["labels"]["command"]: entry["value"]
        for entry in result.metrics["viracocha_commands_degraded_total"]
    }
    assert metrics["iso-dataman"] == 1


def test_dynamic_single_crash_reassigns_and_keeps_group1_bytes(clean_iso):
    """Under the dynamic schedule a dead worker's claimed tasks move to
    a survivor and the merge still equals a group-1 run byte for byte."""
    group1 = paper_session(n_workers=3).run("iso-dataman", params=ISO, group_size=1)
    session = _crash_session(clean_iso)
    result = session.run("iso-dataman", params=DYNAMIC_ISO)
    assert result.complete and not result.degraded
    assert result.failed_shares == []
    assert result.recovery["reassignments"] >= 1
    assert _bytes(result.geometry) == _bytes(group1.geometry)
    assert "fault-reassign" in result.span_kinds()


def test_dynamic_all_workers_dead_loses_every_task():
    """Every worker down before the drain starts: each task exhausts its
    attempts, the run terminates degraded, and all of it is lost."""
    session = paper_session(n_workers=2)
    plan = FaultPlan(seed=2)
    for w in range(2):
        plan.crash_worker(0.0, worker=w, downtime=0.0)
    FaultInjector(plan, session).install()
    result = session.run("iso-dataman", params=DYNAMIC_ISO)
    assert result.degraded and not result.complete
    assert result.planned_units > result.group_size
    assert result.failed_shares == list(range(result.planned_units))
    assert result.geometry.n_triangles == 0
    assert degraded_share_rate([result]) == 1.0


def test_degraded_session_still_serves_later_commands(clean_iso):
    session = paper_session(n_workers=2)
    plan = FaultPlan(seed=3)
    # Both workers die but recover well after the first command ends.
    for w in range(2):
        plan.crash_worker(
            0.2 * clean_iso.total_runtime, worker=w,
            downtime=100.0 * clean_iso.total_runtime,
        )
    FaultInjector(plan, session).install()
    degraded = session.run("iso-dataman", params=ISO)
    assert degraded.degraded
    for worker in session.scheduler.workers:
        worker.recover()
    ok = session.run("iso-dataman", params=ISO)
    assert ok.complete
    assert ok.geometry.n_triangles == clean_iso.geometry.n_triangles


def test_assignment_timeout_interrupts_and_retries(clean_iso):
    # A timeout far below the share runtime: every attempt times out and
    # the command degrades instead of hanging.
    policy = RecoveryPolicy(
        assignment_timeout=0.01 * clean_iso.total_runtime, max_retries=1,
        retry_backoff=0.001,
    )
    session = paper_session(n_workers=2, recovery=policy)
    result = session.run("iso-dataman", params=ISO)
    assert result.degraded
    stats = session.scheduler.recovery_stats
    assert stats["timeouts"] >= 2
    assert stats["retries"] >= 1
    assert "fault-timeout" in result.span_kinds()


def test_generous_timeout_changes_nothing(clean_iso):
    policy = RecoveryPolicy(assignment_timeout=100.0 * clean_iso.total_runtime)
    session = paper_session(n_workers=3, recovery=policy)
    result = session.run("iso-dataman", params=ISO)
    assert result.complete
    assert result.geometry.n_triangles == clean_iso.geometry.n_triangles
    assert session.scheduler.recovery_stats["timeouts"] == 0


def test_no_reassign_policy_pins_share_to_dead_worker(clean_iso):
    session = paper_session(
        n_workers=3, recovery=RecoveryPolicy(reassign=False, retry_backoff=0.001)
    )
    plan = FaultPlan(seed=4).crash_worker(
        0.3 * clean_iso.total_runtime, worker=1,
        downtime=100.0 * clean_iso.total_runtime,
    )
    FaultInjector(plan, session).install()
    result = session.run("iso-dataman", params=ISO)
    assert result.degraded
    assert result.failed_shares == [1]
    assert session.scheduler.recovery_stats["reassignments"] == 0
    # The two surviving shares still made it into the merge.
    assert 0 < result.geometry.n_triangles < clean_iso.geometry.n_triangles


def test_recovery_none_keeps_legacy_fast_path(clean_iso):
    """No policy, no faults: results identical to the supervised path."""
    legacy = paper_session(n_workers=3).run("iso-dataman", params=ISO)
    supervised = paper_session(
        n_workers=3, recovery=RecoveryPolicy()
    ).run("iso-dataman", params=ISO)
    assert legacy.geometry.n_triangles == supervised.geometry.n_triangles
    assert legacy.total_runtime == pytest.approx(supervised.total_runtime)
    assert legacy.recovery == {"retries": 0, "reassignments": 0}


def test_all_spans_closed_after_crash_recovery(clean_iso):
    from repro.faults import open_spans

    session = _crash_session(clean_iso)
    result = session.run("iso-dataman", params=ISO)
    assert open_spans(result) == []
