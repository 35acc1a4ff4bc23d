"""Tests for priority queueing and transfer escalation (prefetch I/O)."""

import pytest

from repro.des import Environment, Link, Resource
from repro.des.network import TransferToken


# ----------------------------------------------------------- priority


def test_priority_request_jumps_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(name, priority, hold=1.0):
        req = res.request(priority)
        yield req
        order.append((env.now, name))
        yield env.timeout(hold)
        res.release(req)

    def scenario():
        env.process(user("first", 0))
        yield env.timeout(0.1)
        env.process(user("background", 1))
        env.process(user("urgent", 0))

    env.process(scenario())
    env.run()
    assert [n for _t, n in order] == ["first", "urgent", "background"]


def test_same_priority_is_fifo():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(name):
        req = res.request(0)
        yield req
        order.append(name)
        yield env.timeout(1)
        res.release(req)

    for n in ["a", "b", "c"]:
        env.process(user(n))
    env.run()
    assert order == ["a", "b", "c"]


def test_queue_len_counts_waiting_only():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request(1)
    r3 = res.request(0)
    assert res.queue_len == 2
    res.release(r1)
    assert res.queue_len == 1  # r3 (priority 0) granted before r2


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    r3 = res.request()
    res.cancel(r2)
    res.release(r1)
    assert r3.triggered
    assert not r2.triggered


def test_request_does_not_bypass_nonempty_queue():
    """A new request at high priority still queues if others wait; it
    only outranks *lower-priority* waiters."""
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    bg = res.request(5)
    hi = res.request(0)
    assert not bg.triggered and not hi.triggered
    res.release(r1)
    assert hi.triggered and not bg.triggered


# --------------------------------------------------------------- boost


def test_background_transfer_yields_to_demand():
    env = Environment()
    link = Link(env, bandwidth=100.0)
    done = []

    def xfer(name, priority):
        yield from link.transfer(100, priority=priority)
        done.append((env.now, name))

    def scenario():
        env.process(xfer("running", 0))
        yield env.timeout(0.0)
        env.process(xfer("prefetch", 1))
        env.process(xfer("demand", 0))

    env.process(scenario())
    env.run()
    names = [n for _t, n in done]
    assert names == ["running", "demand", "prefetch"]


def test_token_boost_escalates_queued_transfer():
    env = Environment()
    link = Link(env, bandwidth=100.0)
    done = []
    token = TransferToken(env)

    def boosted():
        yield from link.transfer(100, priority=1, token=token)
        done.append((env.now, "boosted"))

    def competitor(name, delay):
        yield env.timeout(delay)
        yield from link.transfer(100, priority=0)
        done.append((env.now, name))

    def booster():
        yield env.timeout(0.5)
        token.boost()

    env.process(competitor("first", 0.0))  # holds the wire until t=1
    env.process(boosted())  # queues at background priority
    env.process(competitor("late", 0.6))  # would outrank an unboosted prefetch
    env.process(booster())
    env.run()
    names = [n for _t, n in done]
    assert names.index("boosted") < names.index("late")


def test_unboosted_background_loses_to_late_demand():
    env = Environment()
    link = Link(env, bandwidth=100.0)
    done = []

    def background():
        yield env.timeout(0.1)  # queue behind "first", never holding the wire
        yield from link.transfer(100, priority=1)
        done.append("background")

    def competitor(name, delay):
        if delay:
            yield env.timeout(delay)
        yield from link.transfer(100, priority=0)
        done.append(name)

    env.process(competitor("first", 0.0))
    env.process(background())
    env.process(competitor("late", 0.6))
    env.run()
    assert done == ["first", "late", "background"]


def test_boost_after_transfer_started_is_noop():
    env = Environment()
    link = Link(env, bandwidth=100.0)
    token = TransferToken(env)
    finished = []

    def xfer():
        yield from link.transfer(100, priority=1, token=token)
        finished.append(env.now)

    def late_boost():
        yield env.timeout(0.5)  # transfer already holds the wire
        token.boost()

    env.process(xfer())
    env.process(late_boost())
    env.run()
    assert finished == [pytest.approx(1.0)]


def test_double_boost_is_safe():
    env = Environment()
    token = TransferToken(env)
    token.boost()
    token.boost()  # must not trigger the escalation event twice
