"""Unit tests for the DES kernel (events, processes, time)."""

import pytest

from repro.des import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)

    env.process(proc())
    env.run()
    assert env.now == 3.5


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc():
        v = yield env.timeout(1.0, value="hello")
        seen.append(v)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    result = env.run(until=p)
    assert result == 42


def test_sequential_timeouts_accumulate():
    env = Environment()

    def proc():
        yield env.timeout(1)
        yield env.timeout(2)
        yield env.timeout(3)

    env.process(proc())
    env.run()
    assert env.now == 6


def test_parallel_processes_interleave():
    env = Environment()
    log = []

    def proc(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(proc("slow", 5))
    env.process(proc("fast", 2))
    env.run()
    assert log == [(2, "fast"), (5, "slow")]


def test_fifo_ordering_at_same_time():
    env = Environment()
    log = []

    def proc(name):
        yield env.timeout(1)
        log.append(name)

    for name in ["a", "b", "c"]:
        env.process(proc(name))
    env.run()
    assert log == ["a", "b", "c"]


def test_yield_on_process_waits_for_completion():
    env = Environment()

    def child():
        yield env.timeout(4)
        return "done"

    def parent():
        result = yield env.process(child())
        assert result == "done"
        assert env.now == 4
        yield env.timeout(1)

    env.process(parent())
    env.run()
    assert env.now == 5


def test_manual_event_trigger():
    env = Environment()
    evt = env.event()
    seen = []

    def waiter():
        v = yield evt
        seen.append((env.now, v))

    def trigger():
        yield env.timeout(2)
        evt.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [(2, "payload")]


def test_event_double_trigger_raises():
    env = Environment()
    evt = env.event()
    evt.succeed()
    with pytest.raises(SimulationError):
        evt.succeed()


def test_event_value_before_trigger_raises():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_failed_event_propagates_into_process():
    env = Environment()
    evt = env.event()
    caught = []

    def waiter():
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        evt.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_fails_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("kaput")

    env.process(bad())
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_run_until_event():
    env = Environment()

    def proc():
        yield env.timeout(10)
        return "late"

    p = env.process(proc())
    assert env.run(until=p) == "late"
    assert env.now == 10


def test_run_until_deadline_stops_midway():
    env = Environment()
    log = []

    def proc():
        for _ in range(10):
            yield env.timeout(1)
            log.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert env.now == 3.5
    assert log == [1, 2, 3]
    env.run()
    assert log[-1] == 10


def test_run_until_past_deadline_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_yield_already_processed_event():
    env = Environment()
    seen = []

    def proc():
        t = env.timeout(1)
        yield env.timeout(5)  # t fires long before we wait on it
        v = yield t
        seen.append((env.now, v))

    env.process(proc())
    env.run()
    assert seen == [(5, None)]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(3, value="b")
        results = yield AllOf(env, [t1, t2])
        assert set(results.values()) == {"a", "b"}
        assert env.now == 3

    p = env.process(proc())
    env.run(until=p)


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(9, value="slow")
        results = yield AnyOf(env, [t1, t2])
        assert "fast" in results.values()
        assert env.now == 1

    p = env.process(proc())
    env.run(until=p)
    env.run()  # drain the slow timeout


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        results = yield AllOf(env, [])
        assert results == {}

    p = env.process(proc())
    env.run(until=p)


def test_allof_defuses_failures_after_trigger():
    """Regression: a component failing *after* the condition already
    fired must not crash the simulation (stranded work-group members)."""
    env = Environment()

    def quick_fail():
        yield env.timeout(1)
        raise RuntimeError("early")

    def slow_fail():
        yield env.timeout(5)
        raise RuntimeError("late")

    p1 = env.process(quick_fail())
    p2 = env.process(slow_fail())
    cond = AllOf(env, [p1, p2])
    caught = []

    def waiter():
        try:
            yield cond
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()  # must drain p2's late failure without raising
    assert caught == ["early"]
    assert env.now == 5


def test_anyof_defuses_loser_failure():
    env = Environment()

    def winner():
        yield env.timeout(1)
        return "ok"

    def loser():
        yield env.timeout(2)
        raise RuntimeError("loser blew up")

    p1 = env.process(winner())
    p2 = env.process(loser())
    cond = AnyOf(env, [p1, p2])

    def waiter():
        result = yield cond
        assert p1 in result

    env.process(waiter())
    env.run()
    assert env.now == 2


def test_interrupt_wakes_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("finished")
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))

    def interrupter(target):
        yield env.timeout(2)
        target.interrupt(cause="stop")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [("interrupted", 2, "stop")]


def test_interrupt_after_completion_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    p.interrupt()  # must not raise


def test_step_with_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_nested_process_chain():
    env = Environment()

    def leaf():
        yield env.timeout(1)
        return 1

    def mid():
        v = yield env.process(leaf())
        yield env.timeout(1)
        return v + 1

    def top():
        v = yield env.process(mid())
        return v + 1

    p = env.process(top())
    assert env.run(until=p) == 3
    assert env.now == 2


def test_run_until_event_starved_raises():
    env = Environment()
    evt = env.event()  # nobody will ever trigger this
    with pytest.raises(SimulationError):
        env.run(until=evt)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]
