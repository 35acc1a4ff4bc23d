"""Additional DES kernel edge-path tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import AnyOf, Environment, Interrupt


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_anyof_fails_if_first_component_fails():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("first")

    def slow():
        yield env.timeout(5)

    p_bad = env.process(bad())
    p_slow = env.process(slow())
    cond = AnyOf(env, [p_bad, p_slow])
    caught = []

    def waiter():
        try:
            yield cond
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["first"]


def test_process_handles_interrupt_and_continues():
    env = Environment()
    log = []

    def resilient():
        while True:
            try:
                yield env.timeout(10)
                log.append(("slept", env.now))
                return
            except Interrupt:
                log.append(("interrupted", env.now))

    p = env.process(resilient())

    def poker():
        yield env.timeout(1)
        p.interrupt()
        yield env.timeout(1)
        p.interrupt()

    env.process(poker())
    env.run()
    assert log[:2] == [("interrupted", 1), ("interrupted", 2)]
    assert log[-1] == ("slept", 12)


def test_process_raising_new_exception_after_interrupt():
    env = Environment()

    def touchy():
        try:
            yield env.timeout(10)
        except Interrupt:
            raise ValueError("refused")

    p = env.process(touchy())

    def poker():
        yield env.timeout(1)
        p.interrupt()

    env.process(poker())
    with pytest.raises(ValueError, match="refused"):
        env.run()


def test_timeout_while_until_deadline_exact():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(2.0)
        fired.append(env.now)

    env.process(proc())
    env.run(until=2.0)  # inclusive boundary
    assert fired == [2.0]
    assert env.now == 2.0


def test_event_defuse_suppresses_crash():
    env = Environment()
    evt = env.event()
    evt.fail(RuntimeError("ignored"))
    evt.defuse()
    env.run()  # must not raise


def test_call_at_validation_and_ordering():
    env = Environment()
    with pytest.raises(ValueError, match="past"):
        env.call_at(-1.0, lambda: None)
    fired = []
    env.call_at(2.0, lambda: fired.append("at"))
    env.call_at(1.0, lambda: fired.append("in"))
    env.run()
    assert fired == ["in", "at"]
    assert env.now == 2.0


# The delay grid is deliberately tiny so drawn schedules collide often:
# the property under test is tie-breaking at *equal* timestamps.
_DELAY_GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


@given(delays=st.lists(_DELAY_GRID, min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_property_equal_time_callbacks_fire_in_fifo_order(delays):
    """Events at one timestamp fire in scheduling (seq) order — the
    determinism contract everything in repro.faults leans on."""
    env = Environment()
    fired = []
    for i, delay in enumerate(delays):
        env.call_at(delay, lambda i=i: fired.append((env.now, i)))
    env.run()
    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert [i for (_t, i) in fired] == expected
    assert [t for (t, _i) in fired] == sorted(delays)


@given(delays=st.lists(_DELAY_GRID, min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_property_process_wakeups_fifo_and_replay_identical(delays):
    """Processes sleeping to the same instant resume in spawn order,
    and replaying the same schedule yields the identical sequence."""

    def run_once():
        env = Environment()
        order = []

        def sleeper(i, delay):
            yield env.timeout(delay)
            order.append(i)

        for i, delay in enumerate(delays):
            env.process(sleeper(i, delay), name=f"s{i}")
        env.run()
        return order

    first = run_once()
    assert first == sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert run_once() == first


def test_interrupt_during_nested_wait_propagates_to_parent_target():
    env = Environment()
    outcome = []

    def child():
        yield env.timeout(100)
        return "done"

    def parent():
        try:
            result = yield env.process(child())
            outcome.append(result)
        except Interrupt:
            outcome.append("interrupted")

    p = env.process(parent())

    def poker():
        yield env.timeout(1)
        p.interrupt()

    env.process(poker())
    env.run()
    assert outcome == ["interrupted"]
