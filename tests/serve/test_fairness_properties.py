"""Property-based guarantees: no starvation, quotas hold, cancel releases.

Three invariants the serving layer must keep under *any* workload:

1. **No starvation** — while a tenant stays backlogged in a lane, at
   most ``sum(weights of that lane's tenants)`` dispatches separate two
   of its consecutive services (the WRR bound).
2. **Quotas are never exceeded** — peak in-flight and peak admitted
   bytes never pass the tenant's configured limits, whatever the
   submit/cancel interleaving.
3. **Cancellation always releases** — after the system drains, every
   admission slot, byte and backend slot is returned, no matter when
   cancels landed.

The deterministic fairness suite at the bottom re-checks the WRR bound
at several fixed seeds (the CI gate ISSUE 7 asks for).
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.serve import (
    LANE_NORMAL,
    ModeledBackend,
    ServiceProfile,
    TenantServer,
)
from repro.serve.queue import FairCommandQueue


class Item:
    def __init__(self, tenant):
        self.tenant = tenant


def record_pops(queue):
    """Spy on one lane's dispatch: wraps ``queue``'s put and pop and
    returns the log they fill, ``(tenant served, tenants backlogged just
    before)`` per pop."""
    log, live = [], Counter()
    put, pop = queue.put, queue._pop

    def spy_put(tenant, lane, item):
        live[tenant] += 1
        put(tenant, lane, item)

    def spy_pop():
        backlogged = {t for t, n in live.items() if n}
        item = pop()
        if item is not None:
            live[item.tenant] -= 1
            log.append((item.tenant, backlogged))
        return item

    queue.put, queue._pop = spy_put, spy_pop
    return log


def assert_wrr_bound(pop_log, weights):
    """The starvation bound over a queue's dispatch log."""
    bound = sum(weights.values())
    waiting = {t: 0 for t in weights}
    for served, backlogged in pop_log:
        for t in weights:
            if t == served:
                waiting[t] = 0
            elif t in backlogged:
                waiting[t] += 1
                assert waiting[t] <= bound, (
                    f"tenant {t} starved: {waiting[t]} dispatches while "
                    f"backlogged (bound {bound})"
                )
            else:
                waiting[t] = 0


# --------------------------------------------------------------- property 1
@given(
    weights=st.lists(st.integers(1, 4), min_size=2, max_size=5),
    puts=st.lists(st.integers(0, 4), min_size=1, max_size=80),
)
@settings(max_examples=80, deadline=None)
def test_no_tenant_starves_under_any_arrival_order(weights, puts):
    env = Environment()
    queue = FairCommandQueue(env)
    pops = record_pops(queue)
    names = {i: f"t{i}" for i in range(len(weights))}
    weight_by_name = {}
    for i, w in enumerate(weights):
        queue.add_tenant(names[i], w)
        weight_by_name[names[i]] = w
    for idx in puts:
        tenant = names[idx % len(weights)]
        queue.put(tenant, LANE_NORMAL, Item(tenant))
    while len(queue):
        evt = queue.get()
        assert evt.triggered
    assert len(pops) == len(puts)
    assert_wrr_bound(pops, weight_by_name)


# --------------------------------------------------------------- property 2
@given(
    quota=st.integers(1, 4),
    budget=st.integers(100, 2000),
    submits=st.lists(
        st.tuples(
            st.integers(1, 800),      # cost_bytes
            st.floats(0.01, 2.0),     # service time
            st.booleans(),            # cancel this one later?
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_quotas_never_exceeded(quota, budget, submits):
    env = Environment()
    srv = TenantServer(ModeledBackend(env, slots=2))
    srv.register("a", max_in_flight=quota, byte_budget=budget)
    to_cancel = []
    for cost, total, cancel in submits:
        handle = srv.submit(
            "a", "cutplane", cost_bytes=cost,
            service=ServiceProfile(total_s=total),
        )
        assert handle.state in ("queued", "rejected")
        if cancel and handle.state == "queued":
            to_cancel.append(handle)
        # Interleave simulated progress between submits.
        env.run(until=env.now + 0.05)
        for h in to_cancel:
            srv.cancel(h)
        to_cancel.clear()
    env.run(until=srv.drained())
    state = srv.tenant("a")
    assert state.peak_in_flight <= quota
    assert state.peak_bytes <= budget
    assert state.in_flight == 0
    assert state.bytes_in_use == 0


# --------------------------------------------------------------- property 3
@given(
    schedule=st.lists(
        st.tuples(
            st.floats(0.0, 3.0),   # submit offset
            st.floats(0.05, 2.0),  # service time
            st.floats(0.0, 3.0),   # cancel delay (may land pre/mid/post run)
        ),
        min_size=1,
        max_size=25,
    ),
    slots=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_cancellation_always_releases_admission_and_backend_slots(
    schedule, slots
):
    env = Environment()
    backend = ModeledBackend(env, slots=slots)
    srv = TenantServer(backend)
    srv.register("a", max_in_flight=100)
    srv.register("b", max_in_flight=100)

    def driver(tenant, at, total, cancel_delay):
        if at > 0:
            yield env.timeout(at)
        handle = srv.submit(
            tenant, "cutplane", service=ServiceProfile(total_s=total)
        )
        if handle.state == "rejected":
            return
        if cancel_delay > 0:
            yield env.timeout(cancel_delay)
        srv.cancel(handle)

    for i, (at, total, cancel_delay) in enumerate(schedule):
        tenant = "a" if i % 2 == 0 else "b"
        env.process(driver(tenant, at, total, cancel_delay))
    env.run()
    for name in ("a", "b"):
        state = srv.tenant(name)
        assert state.in_flight == 0
        assert state.bytes_in_use == 0
        assert state.queued == 0
        assert state.running == 0
    for handle in srv.handles:
        assert handle.finished, f"handle {handle.request_id} never terminal"
    # Shutting the dispatcher down returns its parked slot: the backend
    # must end with zero slots held.
    srv.shutdown()
    env.run()
    assert backend.resource.count == 0
    assert len(srv.queue) == 0


# ----------------------------------------------------- deterministic seeds
@pytest.mark.parametrize("seed", [7, 11, 23])
def test_wrr_bound_holds_at_fixed_seeds(seed):
    """The CI fairness gate: random workloads at pinned seeds."""
    rng = random.Random(seed)
    env = Environment()
    queue = FairCommandQueue(env)
    pops = record_pops(queue)
    weights = {f"t{i}": rng.randint(1, 4) for i in range(4)}
    for name, weight in weights.items():
        queue.add_tenant(name, weight)
    names = list(weights)
    pending = 0
    for _ in range(300):
        action = rng.random()
        if action < 0.7 or pending == 0:
            tenant = rng.choice(names)
            queue.put(tenant, LANE_NORMAL, Item(tenant))
            pending += 1
        else:
            assert queue.get().triggered
            pending -= 1
    while len(queue):
        queue.get()
    assert pops
    assert_wrr_bound(pops, weights)


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_weighted_share_converges_under_saturation(seed):
    """Under permanent backlog, service shares track weights."""
    rng = random.Random(seed)
    env = Environment()
    queue = FairCommandQueue(env)
    weights = {"w1": 1, "w2": 2, "w4": 4}
    for name, weight in weights.items():
        queue.add_tenant(name, weight)
    n_each = 700
    order = [name for name in weights for _ in range(n_each)]
    rng.shuffle(order)
    for tenant in order:
        queue.put(tenant, LANE_NORMAL, Item(tenant))
    counts = Counter()
    # Drain only while every tenant still has backlog, so observed
    # shares are the saturated steady state.
    while all(counts[name] < n_each for name in weights):
        counts[queue.get().value.tenant] += 1
    total = sum(counts.values())
    for name, weight in weights.items():
        expected = weight / sum(weights.values())
        assert counts[name] / total == pytest.approx(expected, rel=0.05)
