"""Process-pool execution of command shares over shared memory.

The pool mirrors the paper's work group on real local cores: the parent
plans shares exactly like the scheduler, each worker process attaches
the :class:`~repro.parallel.shm.ShmBlockStore` once (pool initializer),
interprets its share with a :class:`~repro.parallel.runner.DirectRunner`
and ships back only the extracted payloads — meshes, pathlines — never
block data.  Mesh payloads come back through one shared-memory result
arena per slot (:mod:`repro.parallel.arena`) once the slot has returned
meshes before; everything else is pickled through the result pipe.
Results are collected in share-index order, so the merged output is
byte-identical to the serial path regardless of which worker finished
first.

Worker wall times are measured with ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, comparable across processes on one host) and
returned with each share so the parent can import them as spans.

A worker process dying mid-share (crash, ``os._exit``, OOM-kill)
surfaces as :class:`WorkerPoolError`; the pool shuts down its remaining
processes first so nothing leaks.  Ordinary exceptions raised by a
command propagate unchanged.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import islice
from multiprocessing import shared_memory
from typing import Any, Sequence

from ..core.commands import Command, CommandContext
from ..dms.items import ItemName
from .arena import PackedMeshes, meshes_nbytes, pack_meshes, unpack_meshes
from .dynamic import TaskResult, default_batch
from .pipeline import BlockPipeline
from .runner import DirectRunner, ShareRun
from .shm import ShmBlockStore

__all__ = ["ProcessWorkerPool", "ShareResult", "WorkerPoolError", "pick_start_method"]


class WorkerPoolError(RuntimeError):
    """A worker process died before finishing its share."""


@dataclass
class ShareResult:
    """One share's payloads plus the worker-side execution record."""

    share_index: int
    payloads: list[Any]
    n_loads: int
    n_computes: int
    n_emits: int
    emitted_nbytes: int
    #: worker-process wall-clock interval (perf_counter seconds).
    t_start: float
    t_end: float
    pid: int
    #: blocks skipped on their stored scalar range (never loaded).
    n_culled: int = 0
    #: payload bytes that came back through the slot's result arena;
    #: 0 when the payloads were pickled through the result pipe.
    arena_nbytes: int = 0
    #: collapsed-stack sample counts from the worker-side sampling
    #: profiler (None unless the pool was built with profiling on).
    folded: dict | None = None
    #: seconds spent waiting — claim-lock contention inside the worker
    #: plus the parent-added tail idle after the worker's last task.
    idle_s: float = 0.0
    #: tasks executed beyond this worker's static fair share (work it
    #: would never have seen under the one-share-per-worker split).
    steals: int = 0
    #: per-task records from a dynamic drain, in execution order; the
    #: canonical ``task_index`` on each is the merge key.  None for
    #: static shares.
    tasks: list[TaskResult] | None = None

    @property
    def seconds(self) -> float:
        return self.t_end - self.t_start


def pick_start_method(requested: str | None = None) -> str:
    """``fork`` when the platform has it (workers inherit the attached
    segments and the imported numerics for free), else ``spawn``."""
    if requested is not None:
        return requested
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# Per-worker-process state, set once by the pool initializer.  A module
# global (not a closure) so spawned workers can find it after import.
# The ticket counter rides in through initargs because a shared Value
# only pickles while a process is being spawned, never through
# ``executor.submit`` arguments.
_WORKER_STORE: ShmBlockStore | None = None
_PROFILE_INTERVAL: float | None = None
_TICKET: Any = None
#: this process's mappings of the pool's result arenas, by slot.
_ARENAS: dict[int, shared_memory.SharedMemory] = {}


def _pool_init(
    manifest: dict,
    profile_interval: float | None = None,
    ticket: Any = None,
) -> None:
    global _WORKER_STORE, _PROFILE_INTERVAL, _TICKET
    _WORKER_STORE = ShmBlockStore.attach(manifest)
    _PROFILE_INTERVAL = profile_interval
    _TICKET = ticket


def _worker_store() -> ShmBlockStore:
    if _WORKER_STORE is None:
        raise RuntimeError("worker has no attached ShmBlockStore")
    return _WORKER_STORE


def _provide(item: ItemName) -> Any:
    t = item.param("time")
    b = item.param("block")
    if t is None or b is None:
        raise KeyError(f"item {item} does not name a block")
    return _worker_store().get_block(int(t), int(b))


#: what a worker sends back: the share record, and — when its mesh
#: payloads were left in the slot's arena instead — their layout plus
#: the payload count of each dynamic task.
_Shipped = tuple["ShareResult", PackedMeshes | None, list[int] | None]


def _ship(result: ShareResult, arena_name: str | None) -> _Shipped:
    """Leave ``result``'s mesh payloads in its slot's arena when one is
    offered and they fit; otherwise they travel pickled as before."""
    if arena_name is None:
        return result, None, None
    slot = result.share_index
    arena = _ARENAS.get(slot)
    if arena is None or arena.name != arena_name:
        if arena is not None:
            arena.close()  # the parent replaced it with a larger one
        arena = _ARENAS[slot] = shared_memory.SharedMemory(name=arena_name)
    packed = pack_meshes(result.payloads, arena.buf)
    if packed is None:
        return result, None, None
    counts = None
    if result.tasks is not None:
        counts = [len(rec.payloads) for rec in result.tasks]
        for rec in result.tasks:
            rec.payloads = []
    result.payloads = []
    return result, packed, counts


def _run_share_task(
    command: Command,
    ctx: CommandContext,
    assignment: Any,
    share_index: int,
    derived: dict | None = None,
    arena_name: str | None = None,
) -> _Shipped:
    import os

    if derived:
        _worker_store().sync_derived(derived)
    sampler = None
    if _PROFILE_INTERVAL is not None:
        from ..obs.profiling import StackSampler

        sampler = StackSampler(interval=_PROFILE_INTERVAL).start()
    t0 = time.perf_counter()
    run: ShareRun = DirectRunner(_provide).run_share(
        command, ctx, assignment, share_index
    )
    t1 = time.perf_counter()
    folded = sampler.stop() if sampler is not None else None
    result = ShareResult(
        share_index=share_index,
        payloads=run.payloads,
        n_loads=run.n_loads,
        n_computes=run.n_computes,
        n_emits=run.n_emits,
        emitted_nbytes=run.emitted_nbytes,
        t_start=t0,
        t_end=t1,
        pid=os.getpid(),
        n_culled=run.n_culled,
        folded=folded,
    )
    return _ship(result, arena_name)


def _claim(n_tasks: int, batch: int) -> tuple[int, int, float]:
    """Claim the next batch of task tickets: ``[lo, hi)`` plus the
    seconds spent waiting on the counter lock (charged to idle)."""
    if _TICKET is None:
        raise RuntimeError("worker has no shared ticket counter")
    t0 = time.perf_counter()
    with _TICKET.get_lock():
        waited = time.perf_counter() - t0
        lo = int(_TICKET.value)
        hi = min(lo + batch, n_tasks)
        _TICKET.value = hi
    return lo, hi, waited


def _drain_tasks(
    command: Command,
    ctx: CommandContext,
    tasks: list[Any],
    order: list[int],
    worker_index: int,
    n_workers: int,
    batch: int,
    derived: dict | None = None,
    pipeline: bool = False,
    arena_name: str | None = None,
) -> _Shipped:
    """One worker's dynamic drain loop: claim batches off the shared
    ticket counter and execute until the tickets run out.

    ``order`` maps ticket position -> canonical task index (LPT by cost
    estimate), so heavy tasks start first while payloads stay keyed by
    canonical index for the order-independent merge.  With ``pipeline``
    the worker runs a :class:`BlockPipeline` and claims its *next*
    batch one task early, so the background thread always knows the
    upcoming block while the current one extracts.
    """
    import os

    if derived:
        _worker_store().sync_derived(derived)
    sampler = None
    if _PROFILE_INTERVAL is not None:
        from ..obs.profiling import StackSampler

        sampler = StackSampler(interval=_PROFILE_INTERVAL).start()
    n_tasks = len(order)
    fair_share = math.ceil(n_tasks / max(n_workers, 1))
    pl = BlockPipeline(_provide) if pipeline else None
    runner = DirectRunner(_provide, pipeline=pl)
    idle_s = 0.0
    steals = 0
    executed = 0
    records: list[TaskResult] = []
    payloads: list[Any] = []
    n_loads = n_culled = n_computes = n_emits = emitted_nbytes = 0
    queue: deque[int] = deque()
    exhausted = False
    t_run0 = time.perf_counter()
    try:
        while True:
            # Refill — eagerly one task early when pipelining, so the
            # next block is known before the last queued task runs.
            low_water = 1 if pl is not None else 0
            if len(queue) <= low_water and not exhausted:
                lo, hi, waited = _claim(n_tasks, batch)
                idle_s += waited
                queue.extend(range(lo, hi))
                exhausted = hi >= n_tasks
            if not queue:
                break
            task_index = order[queue.popleft()]
            if pl is not None:
                pl.schedule(command.item_sequence_for(ctx, tasks[task_index]))
                if queue:
                    nxt = order[queue[0]]
                    pl.schedule(command.item_sequence_for(ctx, tasks[nxt]))
            t0 = time.perf_counter()
            run: ShareRun = runner.run_share(
                command, ctx, tasks[task_index], worker_index
            )
            t1 = time.perf_counter()
            executed += 1
            if executed > fair_share:
                steals += 1
            records.append(
                TaskResult(
                    task_index=task_index,
                    payloads=run.payloads,
                    n_loads=run.n_loads,
                    n_culled=run.n_culled,
                    n_computes=run.n_computes,
                    n_emits=run.n_emits,
                    emitted_nbytes=run.emitted_nbytes,
                    seconds=t1 - t0,
                )
            )
            payloads.extend(run.payloads)
            n_loads += run.n_loads
            n_culled += run.n_culled
            n_computes += run.n_computes
            n_emits += run.n_emits
            emitted_nbytes += run.emitted_nbytes
    finally:
        if pl is not None:
            pl.close()
    t_run1 = time.perf_counter()
    folded = sampler.stop() if sampler is not None else None
    result = ShareResult(
        share_index=worker_index,
        payloads=payloads,
        n_loads=n_loads,
        n_computes=n_computes,
        n_emits=n_emits,
        emitted_nbytes=emitted_nbytes,
        t_start=t_run0,
        t_end=t_run1,
        pid=os.getpid(),
        n_culled=n_culled,
        folded=folded,
        idle_s=idle_s,
        steals=steals,
        tasks=records,
    )
    return _ship(result, arena_name)


def _derive_field_task(
    time_index: int, block_id: int, field_name: str, velocity: str
) -> tuple[int, int, Any]:
    from ..algorithms.lambda2 import lambda2_field

    block = _worker_store().get_block(time_index, block_id)
    if field_name != "lambda2":
        raise ValueError(f"unknown derived field {field_name!r}")
    return time_index, block_id, lambda2_field(block, velocity)


class ProcessWorkerPool:
    """A work group of OS processes attached to one shared-memory store."""

    def __init__(
        self,
        store: ShmBlockStore,
        n_workers: int,
        start_method: str | None = None,
        profile_interval: float | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if profile_interval is not None and profile_interval <= 0:
            raise ValueError(
                f"profile_interval must be > 0, got {profile_interval}"
            )
        self.store = store
        self.n_workers = n_workers
        self.start_method = pick_start_method(start_method)
        #: seconds between worker-side stack samples; None = no profiling.
        self.profile_interval = profile_interval
        ctx = multiprocessing.get_context(self.start_method)
        #: shared ticket counter for dynamic drains; created before the
        #: executor so it is inheritable (fork) / spawn-picklable via
        #: initargs — submit() args cannot carry it.
        self._ticket = ctx.Value("q", 0)
        #: result arenas by slot (static share index / drain worker
        #: index), and the bytes the largest mesh result each slot has
        #: returned needed.  A slot gets its arena before the run after
        #: it first returned meshes, so a pool's first run allocates
        #: nothing and an arena is never larger than one result.
        self._arenas: dict[int, shared_memory.SharedMemory] = {}
        self._arena_wanted: dict[int, int] = {}
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=ctx,
            initializer=_pool_init,
            initargs=(store.manifest(), profile_interval, self._ticket),
        )

    # ------------------------------------------------------------- shares
    def run_shares(
        self, command: Command, ctx: CommandContext, assignments: Sequence[Any]
    ) -> list[ShareResult]:
        """Execute every share; results returned in share-index order."""
        self._require_executor()
        # Workers attached at pool start; ship the current derived-field
        # manifest so they can map segments created since (sync is a
        # no-op when nothing is new).
        derived = self.store.derived_manifest() or None
        arenas = self._offer_arenas(len(assignments))
        return self._gather(
            [
                (_run_share_task, command, ctx, assignment, i, derived, arenas[i])
                for i, assignment in enumerate(assignments)
            ],
            "share",
        )

    def run_tasks(
        self,
        command: Command,
        ctx: CommandContext,
        tasks: Sequence[Any],
        order: Sequence[int],
        batch: int | None = None,
        pipeline: bool = False,
    ) -> list[ShareResult]:
        """Dynamic execution: every worker drains the shared ticket
        counter until the tasks run out (work stealing by omission).

        ``order`` positions tickets in execution order (LPT over cost
        estimates); results keep canonical ``task_index`` keys, so
        :func:`~repro.parallel.dynamic.payload_lists` reassembles the
        serial payload sequence regardless of interleaving.  Returns
        one :class:`ShareResult` per participating worker.
        """
        self._require_executor()
        if sorted(order) != list(range(len(tasks))):
            raise ValueError("order must be a permutation of the task indices")
        derived = self.store.derived_manifest() or None
        # The pool is quiescent between runs, so the parent can reset
        # the counter without racing a drain.
        with self._ticket.get_lock():
            self._ticket.value = 0
        n_active = max(1, min(self.n_workers, len(tasks)))
        if batch is None:
            batch = default_batch(len(tasks), n_active)
        arenas = self._offer_arenas(n_active)
        tasks, order = list(tasks), list(order)
        return self._gather(
            [
                (_drain_tasks, command, ctx, tasks, order, w, n_active, batch,
                 derived, pipeline, arenas[w])
                for w in range(n_active)
            ],
            "drain",
        )

    # ------------------------------------------------------------- arenas
    def _offer_arenas(self, n_slots: int) -> list[str | None]:
        """Each slot's arena name for the coming run (``None`` until the
        slot has returned meshes), regrown first where the last result
        overflowed.  The pool is quiescent here, so no worker is writing."""
        names: list[str | None] = []
        for slot in range(n_slots):
            arena = self._arenas.get(slot)
            if self._arena_wanted.get(slot, 0) > (arena.size if arena else 0):
                if arena is not None:
                    arena.close()
                    arena.unlink()
                arena = self._arenas[slot] = shared_memory.SharedMemory(
                    create=True, size=self._arena_wanted[slot]
                )
            names.append(arena.name if arena else None)
        return names

    def _gather(self, calls: Sequence[tuple], what: str) -> list[ShareResult]:
        """Submit one ``(fn, *args)`` call per slot; results in slot
        order with arena payloads rebuilt.  A worker that dies while the
        calls are still being submitted breaks the pool just the same."""
        executor = self._require_executor()
        futures: list[Future] = []
        results: list[ShareResult] = []
        try:
            for call in calls:
                futures.append(executor.submit(*call))
            for slot, future in enumerate(futures):
                result, packed, counts = future.result()
                if packed is not None:
                    result.payloads = unpack_meshes(packed, self._arenas[slot].buf)
                    result.arena_nbytes = packed.nbytes
                    if counts is not None:
                        flat = iter(result.payloads)
                        for rec, n in zip(result.tasks, counts):
                            rec.payloads = list(islice(flat, n))
                needed = packed.nbytes if packed else meshes_nbytes(result.payloads)
                if needed:
                    self._arena_wanted[slot] = max(
                        self._arena_wanted.get(slot, 0), needed
                    )
                results.append(result)
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerPoolError(
                f"a worker process died before finishing its {what}; "
                "the pool has been shut down"
            ) from exc
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def derive_field(
        self,
        keys: Sequence[tuple[int, int]],
        field_name: str = "lambda2",
        velocity: str = "velocity",
    ) -> None:
        """Fan a per-block derived-field computation across the pool.

        Each worker reads its block from shared memory, computes the
        field at float64 and returns it; the parent stores the results
        in new shared segments via
        :meth:`~repro.parallel.shm.ShmBlockStore.add_derived_field`.
        Already-running workers pick the new segments up through the
        derived manifest shipped with each subsequent share (see
        :meth:`run_shares`), so the pool keeps running.
        """
        executor = self._require_executor()
        futures = [
            executor.submit(_derive_field_task, t, b, field_name, velocity)
            for t, b in keys
        ]
        try:
            for future in futures:
                t, b, data = future.result()
                self.store.add_derived_field(t, b, field_name, data)
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerPoolError(
                "a worker process died while deriving fields"
            ) from exc

    # ------------------------------------------------------------ plumbing
    def _require_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise WorkerPoolError("pool is closed")
        return self._executor

    @property
    def closed(self) -> bool:
        return self._executor is None

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        while self._arenas:
            _slot, arena = self._arenas.popitem()
            arena.close()
            arena.unlink()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
