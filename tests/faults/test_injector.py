"""FaultInjector unit tests: hooks fire, spans/counters appear."""

import pytest

from repro.core.scheduler import RecoveryPolicy
from repro.faults import FaultInjector, FaultPlan
from tests.conftest import paper_session

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 2)}


def _metric(result, name, **labels):
    for entry in result.metrics.get(name, []):
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            return entry["value"]
    return None


def test_install_sets_default_recovery_policy():
    session = paper_session()
    assert session.scheduler.recovery is None
    FaultInjector(FaultPlan(seed=0), session).install()
    assert isinstance(session.scheduler.recovery, RecoveryPolicy)


def test_install_keeps_explicit_recovery_policy():
    policy = RecoveryPolicy(max_retries=7)
    session = paper_session(recovery=policy)
    FaultInjector(FaultPlan(seed=0), session).install()
    assert session.scheduler.recovery is policy


def test_link_degrade_episode_applies_and_restores():
    session = paper_session()
    link = session.cluster.link("fileserver")
    plan = FaultPlan(seed=0).degrade_link(0.0, "fileserver", 0.5, duration=1e9)
    injector = FaultInjector(plan, session).install()
    assert link.effective_bandwidth == link.bandwidth  # nothing until the calendar fires
    session.run("iso-dataman", params=ISO)
    # The restore lies beyond the command's end, so degradation holds.
    assert link.effective_bandwidth == pytest.approx(0.5 * link.bandwidth)
    assert injector.injected["link-degrade"] == 1

    short = paper_session()
    FaultInjector(
        FaultPlan(seed=0).degrade_link(0.0, "fileserver", 0.5, duration=1e-6),
        short,
    ).install()
    short.run("iso-dataman", params=ISO)
    link = short.cluster.link("fileserver")
    assert link.effective_bandwidth == link.bandwidth


def test_degraded_fileserver_slows_the_command():
    clean = paper_session().run("iso-dataman", params=ISO)
    session = paper_session()
    FaultInjector(
        FaultPlan(seed=0).degrade_link(0.0, "fileserver", 0.01, duration=1e9),
        session,
    ).install()
    slow = session.run("iso-dataman", params=ISO)
    assert slow.total_runtime > clean.total_runtime


def test_lossy_link_charges_retransmits_deterministically():
    runs = []
    for _ in range(2):
        session = paper_session()
        FaultInjector(
            FaultPlan(seed=11).lossy_link(0.0, "fileserver", 0.5, duration=1e9),
            session,
        ).install()
        # Spy on the installed loss hook: the delay it charges per transfer.
        link = session.cluster.link("fileserver")
        hook, extras = link.fault_hook, []
        link.fault_hook = lambda nbytes: extras.append(hook(nbytes)) or extras[-1]
        result = session.run("iso-dataman", params=ISO)
        faulted = [extra for extra in extras if extra > 0.0]
        assert faulted
        runs.append((result.total_runtime, len(faulted), sum(faulted)))
    assert runs[0] == runs[1]


def test_server_stall_blocks_forced_loads():
    clean = paper_session().run("iso-dataman", params=ISO)
    session = paper_session()
    stall = 0.5 * clean.total_runtime
    FaultInjector(FaultPlan(seed=0).stall_server(0.0, stall), session).install()
    result = session.run("iso-dataman", params=ISO)
    assert result.total_runtime >= clean.total_runtime + 0.9 * stall
    assert session.scheduler.server.stall_waits > 0


def test_crash_emits_spans_and_counters():
    session = paper_session(n_workers=3)
    horizon = 100.0
    plan = FaultPlan(seed=0).crash_worker(horizon, worker=1, downtime=50.0)
    FaultInjector(plan, session).install()
    result = session.run("iso-dataman", params=ISO)
    kinds = {s.kind for s in result.spans}
    assert "fault-crash" in kinds
    assert "fault-recover" in kinds
    crash = next(s for s in result.spans if s.kind == "fault-crash")
    assert crash.attrs["worker"] == 1
    assert crash.t_start == pytest.approx(horizon)
    assert crash.finished
    assert _metric(result, "viracocha_faults_injected_total", kind="worker-crash") == 1
    assert sum(s.kind == "fault-crash" for s in result.spans) == 1
    assert not session.scheduler.workers[1].crashed


def test_unknown_link_target_raises_at_install():
    session = paper_session()
    plan = FaultPlan(seed=0).degrade_link(0.0, "warp-conduit", 0.5, 1.0)
    with pytest.raises(KeyError, match="warp-conduit"):
        FaultInjector(plan, session).install()


def test_install_is_idempotent():
    session = paper_session()
    injector = FaultInjector(
        FaultPlan(seed=0).stall_server(1e9, 1.0), session
    )
    injector.install()
    before = len(session.env._queue)
    injector.install()
    assert len(session.env._queue) == before
