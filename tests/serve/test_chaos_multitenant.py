"""Chaos under multi-tenancy: faults blast one command, not one tenant.

Three concurrent tenants drive real commands through a
:class:`~repro.serve.server.SessionBackend` while a
:class:`~repro.faults.FaultPlan` injects a worker crash and a slow-disk
episode.  The isolation claims:

* every submitted command reaches a terminal state (no hangs, no leaked
  admission slots);
* only commands whose execution window overlaps a fault episode may
  degrade — tenants that never ran during an episode keep a perfect
  ``complete-results`` rollup;
* the whole scenario replays deterministically (equal serving-layer
  fingerprints across two runs).
"""

import pytest

from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from tests.conftest import serve_server

CUT = {"normal": (0.0, 0.0, 1.0), "offset": 0.8, "time_range": (0, 1)}
ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}

TENANTS = ("vr", "batch", "dash")


def chaos_plan() -> FaultPlan:
    """Worker crash early, slow scratch disk later — both recoverable."""
    return (
        FaultPlan(seed=7)
        .crash_worker(2.0, worker=1, downtime=1.0)
        .degrade_link(20.0, "disk1", factor=0.25, duration=10.0)
    )


def run_scenario():
    session, srv = serve_server(n_workers=2, slots=1)
    injector = FaultInjector(chaos_plan(), session).install()
    for name in TENANTS:
        srv.register(name, max_in_flight=4)
    handles = []
    for name in TENANTS:
        handles.append(srv.submit(name, "cutplane", CUT, cost_bytes=512))
        handles.append(srv.submit(name, "iso-dataman", ISO, cost_bytes=2048))
    session.env.run(until=srv.drained())
    return session, srv, injector, handles


def episode_windows(plan: FaultPlan):
    return [(e.time, e.end if e.duration else float("inf"))
            for e in plan.events]


def overlapped_a_fault(handle, windows) -> bool:
    if handle.t_start is None or handle.t_done is None:
        return True  # never ran — be conservative, don't claim isolation
    return any(
        handle.t_start < end and handle.t_done > start
        for start, end in windows
    )


@pytest.fixture(scope="module")
def scenario():
    return run_scenario()


def test_faults_actually_fired(scenario):
    _, _, injector, _ = scenario
    assert injector.injected.get("worker-crash") == 1
    assert injector.injected.get("link-degrade") == 1


def test_every_tenant_command_terminates(scenario):
    _, srv, _, handles = scenario
    assert len(handles) == 6
    for handle in handles:
        assert handle.state == "done", (
            f"{handle.tenant}/{handle.command} ended {handle.state}"
        )
    for name in TENANTS:
        state = srv.tenant(name)
        assert state.in_flight == 0
        assert state.bytes_in_use == 0
        assert state.completed == 2


def test_degradation_confined_to_fault_windows(scenario):
    _, srv, _, handles = scenario
    windows = episode_windows(chaos_plan())
    for handle in handles:
        if handle.degraded:
            assert overlapped_a_fault(handle, windows), (
                f"{handle.tenant}/{handle.command} degraded outside any "
                "fault episode"
            )
    # Tenant-level isolation: a tenant with no fault-window overlap has
    # a perfect complete-results rollup.
    untouched = {
        name for name in TENANTS
        if not any(
            overlapped_a_fault(h, windows)
            for h in handles if h.tenant == name
        )
    }
    for st in srv.tracker.status("tenant", slo_name="complete-results"):
        if st.key in untouched:
            assert st.attainment == 1.0


def test_per_tenant_rollups_present_for_all_three(scenario):
    _, srv, _, _ = scenario
    assert set(srv.tracker.keys("tenant")) == set(TENANTS)
    rows = srv.tracker.status("tenant", slo_name="queue-admit")
    assert {st.key for st in rows} == set(TENANTS)
    # slots=1 serializes commands, so someone waited in the fair queue.
    assert any(st.p99 > 0 for st in rows)


def test_chaos_scenario_replays_deterministically(scenario):
    _, srv, _, _ = scenario
    _, srv2, _, _ = run_scenario()
    assert srv2.fingerprint() == srv.fingerprint()


def test_recovery_kept_results_usable(scenario):
    _, srv, _, handles = scenario
    # The crash hit a 2-worker group under a RecoveryPolicy: results may
    # degrade but never vanish — every merge produced geometry.
    for handle in handles:
        assert handle.outcome is not None
        assert handle.outcome.merged is not None
