"""Discrete-event simulation kernel.

A small, deterministic, simpy-like engine.  Simulation *processes* are
Python generators that ``yield`` :class:`Event` objects; the
:class:`Environment` owns the event calendar and advances simulated time.

This kernel is the execution substrate for the simulated Viracocha
cluster (:mod:`repro.des.cluster`): everything the paper measured on a
24-CPU SUN Fire 6800 runs here as coroutines over a virtual clock, which
makes runtimes for 1..16 workers reproducible on a single host core.

Determinism rules:

* events scheduled at the same time fire in FIFO order of scheduling
  (a monotonically increasing sequence number breaks calendar ties);
* no wall-clock or OS randomness is consulted anywhere.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from sys import getrefcount
from collections.abc import Generator, Iterable
from typing import Any, Callable

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. triggering an event twice)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, after which its callbacks run at the
    current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool | None = None
        self._triggered = False
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        env._imm.append(self)
        env._seq += 1
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = False
        self._value = exc
        env = self.env
        env._imm.append(self)
        env._seq += 1
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True


# Shared "pending, nobody listens yet" marker for Timeout.callbacks: an
# immutable stand-in for a fresh empty list.  ``None`` still means
# processed; appenders that find the marker swap in a real list first.
_NO_CALLBACKS: tuple = ()


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    ``_proc`` is the lightweight fast path: when a process yields a
    fresh Timeout that nobody else listens to, the waiting process is
    stored here instead of appending a ``_resume`` bound method to
    ``callbacks``.  The run loop dispatches ``_proc`` directly — same
    FIFO position (the slot stands in for what would have been the
    first callback), no list iteration, no bound-method allocation.

    A Timeout is born triggered and can never fail, so ``_triggered``,
    ``_ok`` and ``_defused`` are class-level constants (they shadow the
    parent's slots; nothing ever writes them on a Timeout), saving
    three per-instance stores on the hottest allocation in the engine.
    """

    __slots__ = ("_proc",)

    _triggered = True
    _ok = True
    _defused = False

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._proc = None
        env._schedule(self, delay=delay)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        self._count = 0
        if any(e.env is not env for e in self.events):
            raise SimulationError("events from different environments")
        if not self.events:
            self.succeed(self._collect())
            return
        for e in self.events:
            cbs = e.callbacks
            if cbs is None:  # already processed
                self._check(e)
            elif cbs.__class__ is tuple:  # shared _NO_CALLBACKS marker
                e.callbacks = [self._check]
            else:
                cbs.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {
            e: e._value for e in self.events if e.callbacks is None and e._ok
        }

    def _check(self, event: Event) -> None:
        if self._triggered:
            # The condition already fired, but later component failures
            # must still be marked handled or they would crash the run.
            if event._triggered and not event._ok:
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every component event has triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


class AnyOf(_Condition):
    """Triggers when the first component event triggers."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class _Resume(Event):
    """Pre-triggered shim that resumes a process after a processed target.

    Replaces the closure-per-wait pattern: the callback is a shared
    module-level trampoline reading two slots, so waiting on an
    already-processed event allocates no closure cell.
    """

    __slots__ = ("process", "target")


def _resume_trampoline(event: "_Resume") -> None:
    event.process._resume_processed(event.target)


class _Hook(Event):
    """Pre-triggered shim carrying a zero-argument function for call_at.

    The shared trampoline replaces the lambda closure that used to be
    allocated per :meth:`Environment.call_at`.
    """

    __slots__ = ("fn",)


def _hook_trampoline(event: "_Hook") -> None:
    event.fn()


class Process(Event):
    """Wraps a generator; itself an event that triggers on completion.

    The generator yields :class:`Event` instances (including other
    processes).  When a yielded event fails and the failure is not
    handled by the generator, the process fails with the same exception.
    """

    __slots__ = ("_generator", "_send", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        # Bound once so each resume costs one slot load, not two
        # attribute lookups (``_generator`` then ``send``).
        self._send = generator.send
        self._target: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        # Inlined ``Event(env).succeed()`` minus the already-triggered
        # check: schedules the first _resume at the current time.
        init = Event(env)
        init._triggered = True
        init._ok = True
        init.callbacks.append(self._resume)
        env._imm.append(init)
        env._seq += 1

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        env = self.env

        def _do(_evt: Event) -> None:
            if self._triggered:
                return
            target = self._target
            if target is not None:
                if type(target) is Timeout and target._proc is self:
                    target._proc = None
                elif target.callbacks.__class__ is list:
                    try:
                        target.callbacks.remove(self._resume)
                    except ValueError:
                        pass
            self._target = None
            self._step(Interrupt(cause))

        hook = Event(env)
        hook.callbacks.append(_do)
        hook.succeed()

    # -- driving ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step_send(event._value)
        else:
            event.defuse()
            self._step(event._value)

    def _step_send(self, value: Any) -> None:
        try:
            target = self._send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._wait(target)

    def _step(self, exc: BaseException) -> None:
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            if err is exc and not isinstance(err, Interrupt):
                # Unhandled failure propagated out of the generator.
                self.fail(err)
            elif isinstance(err, StopIteration):  # pragma: no cover
                self.succeed(err.value)
            else:
                self.fail(err)
            return
        self._wait(target)

    def _wait(self, target: Any) -> None:
        if isinstance(target, Event) and target.env is self.env:
            cbs = target.callbacks
            if cbs is not None:
                # Fast path: a fresh Timeout nobody else listens to is
                # dispatched via its _proc slot (see Timeout docstring).
                if type(target) is Timeout and not cbs and target._proc is None:
                    target._proc = self
                elif cbs.__class__ is tuple:  # shared _NO_CALLBACKS marker
                    target.callbacks = [self._resume]
                else:
                    cbs.append(self._resume)
                self._target = target
            else:
                # Already fired; resume immediately (next scheduling slot)
                # via the shared trampoline instead of a per-wait closure.
                env = self.env
                resume = _Resume.__new__(_Resume)
                resume.env = env
                resume._value = None
                resume._ok = True
                resume._triggered = True
                resume._defused = False
                resume.process = self
                resume.target = target
                resume.callbacks = [_resume_trampoline]
                env._imm.append(resume)
                env._seq += 1
                self._target = target
            return
        if not isinstance(target, Event):
            self._step(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            ))
        else:
            self._step(SimulationError("yielded event from another environment"))

    def _resume_processed(self, target: Event) -> None:
        self._target = None
        if target._ok:
            self._step_send(target._value)
        else:
            target.defuse()
            self._step(target._value)


class Environment:
    """Owns the simulation clock and the event calendar."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # The calendar: a list of ``(-time, -seq, event)`` kept sorted
        # (ascending), so the *next* event is at the tail.  Pops are
        # O(1) ``list.pop()``; pushes are a C-level ``bisect.insort``
        # whose memmove is short because most events are scheduled near
        # the current time (tail of the list).  The negated key gives
        # exactly the binary heap's total order — earliest time first,
        # FIFO by sequence number at equal times — so replacing the
        # heap cannot reorder any two events.
        self._queue: list[tuple[float, int, Event]] = []
        # The immediate lane: events scheduled with zero delay (succeed
        # chains, process inits, resumes — the bulk of real traffic).
        # Entries are bare events — no timestamp and no sequence
        # number.  Every immediate event fires at the *current*
        # ``_now``: appends happen at the append-time clock, and the
        # clock only advances from the far lane when this deque is
        # empty.  That same invariant settles equal-time ties without
        # comparing sequence numbers: a far event at exactly ``_now``
        # was necessarily scheduled before the clock reached ``_now``
        # (far inserts never land at the current time), hence before
        # every entry in this deque, so at equal times the far lane
        # always wins.  The deque is FIFO by construction, pops are
        # comparison-free O(1), and the merged order reproduces the
        # single-queue (time, seq) total order exactly.
        self._imm: deque[Event] = deque()
        self._seq = 0
        # Free list of processed Timeout shells for :meth:`timeout` to
        # recycle.  The run loop returns a just-dispatched Timeout here
        # only when ``getrefcount`` proves nothing else references it,
        # so user code that keeps a Timeout around is never affected.
        self._free: list[Timeout] = []

    @property
    def now(self) -> float:
        return self._now

    # -- factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # The single hottest allocation in a run: build the pre-triggered
        # Timeout directly (no chained __init__, no _schedule call).
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        free = self._free
        if free:
            t = free.pop()
        else:
            t = Timeout.__new__(Timeout)
            t.env = self
        t.callbacks = _NO_CALLBACKS
        t._value = value
        t._proc = None
        seq = self._seq
        if delay == 0.0:
            self._imm.append(t)
        else:
            when = self._now + delay
            if when > self._now:
                insort(self._queue, (-when, -seq, t))
            else:
                # Tiny delay rounded away (now + delay == now): fires
                # immediately at the same (time, seq) slot the single
                # queue would have given it.  Keeping such events out of
                # the far lane also guarantees far inserts never land at
                # the current time, which the run loops rely on to cache
                # their equal-time tie check.
                self._imm.append(t)
        self._seq = seq + 1
        return t

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    # -- external hooks ------------------------------------------------
    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn()`` at absolute simulated time ``time``.

        The injection hook used by :mod:`repro.faults`: fault episodes
        are applied from inside the event calendar, so they interleave
        deterministically with regular simulation events (FIFO seq
        order at equal timestamps, like every other event).
        """
        if time < self._now:
            raise ValueError(f"call_at({time}) is in the past (now={self._now})")
        evt = _Hook.__new__(_Hook)
        evt.env = self
        evt._value = None
        evt._ok = True
        evt._triggered = True
        evt._defused = False
        evt.fn = fn
        evt.callbacks = [_hook_trampoline]
        # ``now + (time - now)`` is not always bit-equal to ``time``;
        # keep the historical arithmetic so injection timestamps stay
        # byte-identical with the pre-fast-path kernel.
        when = self._now + (time - self._now)
        if when == self._now:
            self._imm.append(evt)
        else:
            insort(self._queue, (-when, -self._seq, evt))
        self._seq += 1
        return evt

    # -- scheduling ----------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay == 0.0:
            self._imm.append(event)
        else:
            when = self._now + delay
            if when > self._now:
                insort(self._queue, (-when, -self._seq, event))
            else:  # delay rounded away; see Environment.timeout
                self._imm.append(event)
        self._seq += 1

    def _pop_next(self) -> tuple[float, Event]:
        """Remove and return the globally next ``(time, event)`` pair."""
        imm = self._imm
        queue = self._queue
        if imm:
            # A far event at exactly the current time always wins: it
            # was scheduled before the clock reached the current time
            # (see the ``_imm`` comment in ``__init__``).
            if queue and -queue[-1][0] == self._now:
                _nt, _ns, event = queue.pop()
                return self._now, event
            return self._now, imm.popleft()
        if queue:
            neg_ft, _neg_fs, event = queue.pop()
            return -neg_ft, event
        raise SimulationError("no more events")

    def step(self) -> None:
        """Process the single next event."""
        when, event = self._pop_next()
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        if type(event) is Timeout:
            proc = event._proc
            if proc is not None:
                event._proc = None
                proc._target = None
                proc._step_send(event._value)
        for cb in callbacks or ():
            cb(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the calendar empties, a deadline, or an event fires.

        Returns the event's value when ``until`` is an :class:`Event`.

        The loop bodies inline :meth:`step` with the calendar localized,
        and fuse the Timeout fast path (pop → resume the
        waiting generator → re-wait on its next yield) into a single
        iteration: identical pop order, timestamps, and callback
        sequencing, minus several function calls and attribute lookups
        per event.
        """
        queue = self._queue
        imm = self._imm
        imm_popleft = imm.popleft
        free = self._free
        # Localize the names the dispatch body touches per event.
        timeout_cls = Timeout
        no_callbacks = _NO_CALLBACKS
        refcount = getrefcount
        if isinstance(until, Event):
            stop = until
            neg_now = -self._now
            # Far inserts never land at the current time (see
            # Environment.timeout), so the equal-time far-vs-imm tie
            # check only needs recomputing after a far pop.
            tie = bool(queue) and queue[-1][0] == neg_now
            while stop.callbacks is not None:  # not yet processed
                if imm:
                    # A far event at exactly the current time was
                    # scheduled before the clock reached it, so it
                    # precedes every immediate entry (rare tie).
                    if tie:
                        _nt, _ns, event = queue.pop()
                        tie = bool(queue) and queue[-1][0] == neg_now
                    else:
                        event = imm_popleft()
                elif queue:
                    neg_when, _ns, event = queue.pop()
                    self._now = -neg_when
                    neg_now = neg_when
                    tie = bool(queue) and queue[-1][0] == neg_now
                else:
                    raise SimulationError(
                        "simulation ran out of events before target event fired"
                    )
                callbacks = event.callbacks
                event.callbacks = None
                if type(event) is timeout_cls:
                    proc = event._proc
                    if proc is not None:
                        event._proc = None
                        proc._target = None
                        try:
                            target = proc._send(event._value)
                        except StopIteration as result:
                            proc.succeed(result.value)
                        except BaseException as exc:
                            proc.fail(exc)
                        else:
                            if (type(target) is timeout_cls
                                    and target.callbacks is no_callbacks
                                    and target._proc is None
                                    and target.env is self):
                                target._proc = proc
                                proc._target = target
                            else:
                                proc._wait(target)
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                    elif len(free) < 256 and refcount(event) == 2:
                        # Only this frame references the shell: recycle.
                        free.append(event)
                    continue
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                if not event._ok and not event._defused:
                    raise event._value
            if stop._ok:
                return stop._value
            stop.defuse()
            raise stop._value
        deadline = float("inf") if until is None else float(until)
        if deadline != float("inf") and deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        # The far lane is sorted by ascending (-time, -seq): the tail is
        # the next event, so ``time > deadline`` is ``key < -deadline``.
        # Immediate events fire at the current time, which the entry
        # check and the far-pop guard keep <= deadline, so only
        # time-advancing far pops need a deadline test.
        neg_deadline = -deadline
        neg_now = -self._now
        # See the until-Event loop for the tie-flag rationale; the two
        # loops differ only in the stop test.
        tie = bool(queue) and queue[-1][0] == neg_now
        while True:
            if imm:
                # Far event at exactly the current time precedes every
                # immediate entry (rare tie; see the until-Event loop).
                if tie:
                    _nt, _ns, event = queue.pop()
                    tie = bool(queue) and queue[-1][0] == neg_now
                else:
                    event = imm_popleft()
            elif queue:
                neg_when = queue[-1][0]
                if neg_when < neg_deadline:
                    break
                _nt, _ns, event = queue.pop()
                self._now = -neg_when
                neg_now = neg_when
                tie = bool(queue) and queue[-1][0] == neg_now
            else:
                break
            callbacks = event.callbacks
            event.callbacks = None
            if type(event) is timeout_cls:
                proc = event._proc
                if proc is not None:
                    event._proc = None
                    proc._target = None
                    try:
                        target = proc._send(event._value)
                    except StopIteration as result:
                        proc.succeed(result.value)
                    except BaseException as exc:
                        proc.fail(exc)
                    else:
                        if (type(target) is timeout_cls
                                and target.callbacks is no_callbacks
                                and target._proc is None
                                and target.env is self):
                            target._proc = proc
                            proc._target = target
                        else:
                            proc._wait(target)
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                elif len(free) < 256 and refcount(event) == 2:
                    # Only this frame references the shell: recycle.
                    free.append(event)
                continue
            if callbacks:
                for cb in callbacks:
                    cb(event)
            if not event._ok and not event._defused:
                raise event._value
        if deadline != float("inf"):
            self._now = deadline
        return None
