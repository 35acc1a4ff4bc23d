"""FaultPlan unit tests: builders, validation, seed determinism."""

import pytest

from repro.faults import FAULT_KINDS, FaultEvent, FaultPlan


def test_builders_chain_and_record_kinds():
    plan = (
        FaultPlan(seed=5)
        .crash_worker(1.0, worker=2, downtime=0.5)
        .degrade_link(2.0, "fileserver", factor=0.25, duration=1.0)
        .degrade_link(2.5, "disk1", factor=0.1, duration=0.3)
        .lossy_link(3.0, "fabric", loss_prob=0.2, duration=0.5)
        .stall_server(4.0, duration=0.1)
    )
    assert len(plan) == 5
    assert [e.kind for e in plan] == [
        "worker-crash", "link-degrade", "link-degrade", "link-loss",
        "server-stall",
    ]
    disk = plan.events[2]
    assert disk.target == "disk1"
    assert disk.end == pytest.approx(2.8)


def test_event_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(time=0.0, kind="meteor-strike")
    with pytest.raises(ValueError, match="time"):
        FaultEvent(time=-1.0, kind="server-stall")
    with pytest.raises(ValueError, match="duration"):
        FaultEvent(time=0.0, kind="server-stall", duration=-1.0)
    with pytest.raises(ValueError, match="factor"):
        FaultPlan().degrade_link(0.0, "fabric", factor=0.0, duration=1.0)
    with pytest.raises(ValueError, match="probability"):
        FaultPlan().lossy_link(0.0, "fabric", loss_prob=1.5, duration=1.0)
    assert all(k in FAULT_KINDS for k in (
        "worker-crash", "link-degrade", "link-loss", "server-stall"
    ))


def test_random_plans_are_seed_deterministic():
    a = FaultPlan.random(seed=42, horizon=10.0, n_workers=4)
    b = FaultPlan.random(seed=42, horizon=10.0, n_workers=4)
    assert a.events == b.events
    c = FaultPlan.random(seed=43, horizon=10.0, n_workers=4)
    assert a.events != c.events


def test_random_plan_respects_horizon_and_survivors():
    for seed in range(30):
        plan = FaultPlan.random(seed=seed, horizon=5.0, n_workers=3, n_events=6)
        crashes = [e for e in plan if e.kind == "worker-crash"]
        # Never crash every worker: at least one survivor for reassignment.
        assert len({e.target for e in crashes}) <= 2
        for event in plan:
            assert 0.0 <= event.time <= 5.0


def test_random_plan_requires_positive_horizon():
    with pytest.raises(ValueError, match="horizon"):
        FaultPlan.random(seed=0, horizon=0.0, n_workers=2)


def test_describe_is_reproduction_ready():
    plan = FaultPlan(seed=7).crash_worker(0.25, worker=1, downtime=0.125)
    text = plan.describe()
    assert "seed=7" in text
    assert "worker-crash" in text
    assert "t=0.250000" in text
