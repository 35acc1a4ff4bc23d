"""Measurement plumbing shared by every workload: passes, stats, guards.

A *pass* is one set-up, a closed loop of timed ops, and a tear-down of
one workload.  Everything here is workload-agnostic: the loop that
times ops, the percentile/spread arithmetic, the host calibration
kernel, the peak-RSS reading and the leak guard that runs after every
pass.  Nothing in this module imports :mod:`repro` except the span
tracer used for the traced pass.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs import SpanTracer

#: ``host.calib_ms`` may drift this much within a run before we warn.
CALIB_DRIFT_WARN = 0.10


# --------------------------------------------------------------- tracing
class Trace:
    """Driver-side spans around the public calls one client makes.

    One :class:`repro.obs.SpanTracer` per client thread (the tracer is
    not thread-safe), clocked by ``time.perf_counter``.  ``kind`` is the
    layer (module) name, ``name`` the function.  Disabled tracers make
    every call a no-op returning ``NULL_SPAN``, so untraced passes run
    the same code without recording anything.
    """

    def __init__(self, enabled: bool, node: int = 0):
        self.tracer = SpanTracer(clock=time.perf_counter, enabled=enabled)
        self.node = node
        self.root = None
        #: the span of the most recent :meth:`call` (parent for imports).
        self.last = None

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """A root span; :meth:`call` spans inside it become its children."""
        self.root = self.tracer.begin("op", name, node=self.node)
        try:
            yield
        finally:
            self.tracer.end(self.root)
            self.root = None

    def call(self, layer: str, name: str, fn: Callable, *args: Any, **kwargs: Any):
        """``fn(*args, **kwargs)`` inside a child span of the current op."""
        tracer = self.tracer
        span = self.last = tracer.begin(layer, name, node=self.node, parent=self.root)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    def interval(self, layer: str, name: str, t0: float, t1: float, parent):
        """Import an interval measured elsewhere (a worker's share)."""
        return self.tracer.record_interval(
            layer, name, t_start=t0, t_end=t1, node=self.node, parent=parent,
        )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` (children may overlap)."""
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_times(tracer: SpanTracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per span kind, seconds of self time and seconds its children cover.

    Self time is a span's duration minus the part of it its child spans
    cover, so the two add up to the kind's total duration.
    """
    spans = tracer.finished()
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.t_start, s.t_end))
    own: dict[str, float] = {}
    covered: dict[str, float] = {}
    for s in spans:
        kids = [
            (max(lo, s.t_start), min(hi, s.t_end))
            for lo, hi in children.get(s.span_id, ())
        ]
        cover = _covered([k for k in kids if k[1] > k[0]])
        own[s.kind] = own.get(s.kind, 0.0) + s.duration - cover
        covered[s.kind] = covered.get(s.kind, 0.0) + cover
    return own, covered


# ----------------------------------------------------------------- stats
def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def spread(values: list[float]) -> float:
    """``(max − min) / median`` of per-pass values; 0 for one pass."""
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


# ------------------------------------------------------------ host guards
def calib_ms() -> float:
    """A fixed NumPy + pure-Python kernel; best of three, milliseconds.

    Timed before and after every pass so that host drift (a noisy
    neighbour, thermal throttling) is told apart from a regression.  It
    is reported, never used to rescale a metric.
    """
    # Element-wise, gather and sort work like the extraction kernels;
    # no BLAS call, whose thread pool would measure itself.
    v = np.random.default_rng(12345).random(200_000)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        order = np.argsort(v)
        w = np.sqrt(v * v + 1.0)[order]
        np.cumsum(w).max()
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def host_info() -> dict[str, Any]:
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = float("nan")
    return {
        "cpu_count": os.cpu_count() or 1,
        "loadavg_1m": load1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": "fork"
        if "fork" in multiprocessing.get_all_start_methods() else "spawn",
        "machine": platform.platform(),
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child.

    ``ru_maxrss`` is a process-lifetime high-water mark, so in a run of
    several workloads a later one inherits an earlier one's peak; the
    single-workload invocation is the one to compare across commits.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ------------------------------------------------------------- leak guard
def _shm_listing() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _live_children(skip_tracker: bool = True) -> set[int]:
    """PIDs whose parent is this process, minus the resource tracker.

    The ``multiprocessing`` resource tracker is spawned on the first
    shared-memory use and lives until :func:`stop_children` ends it.
    """
    me = os.getpid()
    out: set[int] = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            # "pid (comm) state ppid ..." — comm may hold spaces/parens.
            fields = stat[stat.rindex(")") + 2:].split()
            if int(fields[1]) != me or fields[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except (OSError, ValueError):
            continue
        if skip_tracker and b"resource_tracker" in cmdline:
            continue
        out.add(int(entry))
    return out


def _reap(pid: int, timeout_s: float) -> bool:
    """Wait up to ``timeout_s`` for child ``pid`` to end; True once it has."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return True
        except ChildProcessError:  # reaped elsewhere (Popen, multiprocessing)
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Called on every way out of the benchmark.  The one child a clean run
    still has is the ``multiprocessing`` resource tracker: left alone it
    ends only when its pipe closes, that is *after* this interpreter has
    exited, so whoever started the benchmark would find it still running.
    It is ended by closing that pipe by hand, which also lets it unlink
    any segment a failed pass left behind.  Whatever else is still alive
    (a pool a failed set-up never closed) is terminated, then killed.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    try:
        tracker._stop()  # closes the pipe and waits for the process
    except Exception:  # no such private hook: the sweep below gets it
        pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _live_children(skip_tracker=False)
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if all([_reap(pid, grace_s) for pid in pids]):
            break
    try:  # children that had already ended but were never waited for
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


class LeakGuard:
    """Snapshot ``/dev/shm`` and child processes; diff after the pass."""

    def __init__(self) -> None:
        self.shm = _shm_listing()
        self.children = _live_children()

    def leaks(self) -> list[str]:
        found = [f"/dev/shm/{n}" for n in sorted(_shm_listing() - self.shm)]
        found += [f"child pid {p}" for p in sorted(_live_children() - self.children)]
        return found


# ------------------------------------------------------------------ pass
@dataclass
class PassResult:
    """What one pass of one workload measured."""

    setup_s: float
    latencies_ms: list[float]
    #: wall seconds the clients were busy in ops, averaged over clients;
    #: ``ops / busy_s`` is the closed-loop throughput.
    busy_s: float
    attempted: int
    failed: int
    peak_rss_mb: float
    calib_before_ms: float
    calib_after_ms: float
    leaks: list[str] = field(default_factory=list)
    #: per client, in op order: ``(op, check token)`` for verification
    #: after the last pass.
    records: list[list[tuple[Any, Any]]] = field(default_factory=list)
    traces: list[Trace] = field(default_factory=list)

    @property
    def cmds_per_s(self) -> float:
        return len(self.latencies_ms) / self.busy_s if self.busy_s else 0.0


def _client_loop(workload, client: int, trace: Trace, budget_s: float | None,
                 n_ops: int | None, out: dict) -> None:
    """One closed-loop client: next op only after the previous returned.

    Runs ``n_ops`` ops when given; otherwise until ``budget_s`` of wall
    time has passed *and* the current cycle of the workload's op mix is
    complete, so every kind of op is equally often in the sample.  The
    check token (a digest, a status) is computed after the op's clock
    stops.
    """
    lat: list[float] = []
    records: list[tuple[Any, Any]] = []
    failed = 0
    ops = workload.op_stream(client)
    clock = time.perf_counter
    deadline = None if n_ops is not None else clock() + budget_s
    while True:
        if n_ops is not None:
            if len(records) >= n_ops:
                break
        elif clock() >= deadline and len(records) % workload.cycle == 0:
            break
        op = next(ops)
        with trace.op(workload.name):
            t0 = clock()
            try:
                result = workload.run_op(op, client, trace)
            except Exception as exc:  # a failed op is counted, not fatal
                failed += 1
                records.append((op, None))
                print(f"  ! {workload.name}: op raised {exc!r}")
                continue
            dt = clock() - t0
        lat.append(dt * 1e3)
        records.append((op, workload.token(op, result)))
    out[client] = (lat, records, failed)


def run_pass(workload, budget_s: float | None, n_ops: int | None,
             traced: bool = False) -> PassResult:
    """Set up, run the closed loop on every client, tear down, guard."""
    gc.collect()  # passes start from the same heap, whatever ran before
    guard = LeakGuard()
    calib0 = calib_ms()
    traces = [Trace(traced, node=c) for c in range(workload.clients)]
    t0 = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - t0
    out: dict[int, tuple] = {}
    try:
        if workload.clients == 1:
            _client_loop(workload, 0, traces[0], budget_s, n_ops, out)
        else:
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(workload, c, traces[c], budget_s, n_ops, out),
                )
                for c in range(workload.clients)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
    finally:
        workload.teardown()
    rss = peak_rss_mb()
    calib1 = calib_ms()
    leaks = guard.leaks()
    lat = [x for c in sorted(out) for x in out[c][0]]
    records = [out[c][1] for c in sorted(out)]
    attempted = sum(len(r) for r in records)
    failed = sum(out[c][2] for c in out)
    if leaks:
        # A pass that leaves segments or processes behind is void.
        print(f"  ! {workload.name}: leaked {leaks}")
        failed = attempted
    return PassResult(
        setup_s=setup_s,
        latencies_ms=lat,
        busy_s=sum(lat) / 1e3 / workload.clients,
        attempted=attempted,
        failed=failed,
        peak_rss_mb=rss,
        calib_before_ms=calib0,
        calib_after_ms=calib1,
        leaks=leaks,
        records=records,
        traces=traces,
    )
