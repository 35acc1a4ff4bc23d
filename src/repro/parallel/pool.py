"""Process-pool execution of command shares over mapped block files.

The pool mirrors the paper's work group on real local cores: the parent
plans shares exactly like the scheduler, each worker process attaches
the :class:`~repro.parallel.shm.ShmBlockStore` once (pool initializer;
it maps each file on first use), interprets its share with a
:class:`~repro.parallel.runner.DirectRunner` and ships back only the
extracted payloads — meshes, pathlines — never block data.

What crosses the pipe to a slot per run is what changes between runs:
the command, its context *without* block handles (each worker takes
them from the store it attached: the block catalogue crossed once, in
the pool manifest), the context's level range, the slot's work — its
pruned share, or a drain's live tasks by canonical index: the parent's
prune (:func:`~repro.core.commands.deal`) has already dropped every
block whose stored range excludes the command's value, so no range
table and no cull scalar travels — the claim order, and the slot's
arena name.  The store's
:meth:`~repro.parallel.shm.ShmBlockStore.worker_state` — its
derived-field manifest, which grows with the block count — rides along
only while some worker process has not yet reported the store's
current :attr:`~repro.parallel.shm.ShmBlockStore.generation` back in a
result, so a worker that missed the run carrying it still
syncs.  Mesh payloads come back through one shared-memory result arena
per slot (:mod:`repro.parallel.arena`) once the slot has returned
meshes before; everything else is pickled through the result pipe.
Once every slot has returned, the parent gathers each work unit's
meshes in canonical task order (slot order for pre-dealt shares, task
order for a drain) straight into one merged mesh, so the merge that
follows copies nothing and the output is byte-identical to the serial
path regardless of which worker finished first.

Worker wall times are measured with ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, comparable across processes on one host) and
returned with each share so the parent can import them as spans.  A pool
built with ``profile=True`` runs each share under ``cProfile`` in its
worker and returns the stats dict with it (``repro profile --executor
process`` merges them into the parent's profile).

A worker process dying mid-share (crash, ``os._exit``, OOM-kill)
surfaces as :class:`WorkerPoolError`; the pool shuts down its remaining
processes first so nothing leaks.  Ordinary exceptions raised by a
command propagate unchanged.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Iterator, Mapping, Sequence

from ..core.commands import Command, CommandContext, Deal
from .arena import PackedMeshes, gather_meshes, meshes_nbytes, pack_meshes
from .runner import DirectRunner, ShareResult, derive_field, execute_share
from .shm import ShmBlockStore

__all__ = ["ProcessWorkerPool", "ShareResult", "WorkerPoolError"]


class WorkerPoolError(RuntimeError):
    """A worker process died before finishing its share."""


# Per-worker-process state, set once by the pool initializer.  A module
# global (not a closure) so spawned workers can find it after import.
# The ticket counter rides in through initargs because a shared Value
# only pickles while a process is being spawned, never through
# ``executor.submit`` arguments.
_WORKER_STORE: ShmBlockStore | None = None
_TICKET: Any = None
#: this process's mappings of the pool's result arenas, by slot.
_ARENAS: dict[int, shared_memory.SharedMemory] = {}


def _pool_init(manifest: dict, ticket: Any = None) -> None:
    global _WORKER_STORE, _TICKET
    _WORKER_STORE = ShmBlockStore.attach(manifest)
    _TICKET = ticket
    # A worker forked while the parent profiles (``repro profile
    # --cold``) starts inside the parent's profiler; Python 3.12+ would
    # refuse this process a profiler of its own until that one stops.
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None and monitoring.get_tool(monitoring.PROFILER_ID):
        monitoring.set_events(monitoring.PROFILER_ID, 0)
        monitoring.free_tool_id(monitoring.PROFILER_ID)


def _worker_store() -> ShmBlockStore:
    if _WORKER_STORE is None:
        raise RuntimeError("worker has no attached ShmBlockStore")
    return _WORKER_STORE


#: what a worker sends back: the share record, and — when its mesh
#: payloads were left in the slot's arena instead — their layout plus
#: the payload count of each of its work units; last, the store
#: generation the worker has synced.
_Shipped = tuple[ShareResult, PackedMeshes | None, list[int], int]


def _ship(result: ShareResult, arena_name: str | None, synced: int) -> _Shipped:
    """Leave ``result``'s mesh payloads in its slot's arena when one is
    offered and they fit; otherwise they travel pickled as before."""
    if arena_name is None:
        return result, None, [], synced
    slot = result.share_index
    arena = _ARENAS.get(slot)
    if arena is None or arena.name != arena_name:
        if arena is not None:
            arena.close()  # the parent replaced it with a larger one
        arena = _ARENAS[slot] = shared_memory.SharedMemory(name=arena_name)
    packed = pack_meshes(result.payloads, arena.buf)
    if packed is None:
        return result, None, [], synced
    counts = [len(rec.payloads) for rec in result.tasks]
    for rec in result.tasks:
        rec.payloads = []
    return result, packed, counts, synced


def _tickets(order: Sequence[int], batch: int, waits: list[float]) -> Iterator[int]:
    """Canonical indices claimed ``batch`` tickets at a time off the
    shared counter until it runs out.  ``order`` maps ticket position ->
    canonical index; the seconds each claim waited on the counter lock
    are appended to ``waits`` (charged to idle)."""
    if _TICKET is None:
        raise RuntimeError("worker has no shared ticket counter")
    hi = 0
    while hi < len(order):
        t0 = time.perf_counter()
        with _TICKET.get_lock():
            waits.append(time.perf_counter() - t0)
            lo = int(_TICKET.value)
            hi = min(lo + batch, len(order))
            _TICKET.value = hi
        yield from order[lo:hi]


def _run_slot(
    command: Command,
    ctx: CommandContext,
    levels: tuple[int, int],
    work: Mapping[int, Any],
    order: Sequence[int],
    slot: int,
    batch: int,
    fair_share: int,
    state: dict | None,
    arena_name: str | None,
    profile: bool,
) -> _Shipped:
    """One slot's call over ``work``, the units it may run by
    canonical index.  With ``batch`` 0 the slot was pre-dealt ``order``;
    otherwise ``order`` is the whole run's and the slot claims its part
    off the ticket counter, ``batch`` at a time.  ``ctx`` came without
    block handles; they are the attached store's, for the absolute
    levels ``range(*levels)``, once it has synced ``state`` (``None``:
    no change since this process last reported).  With ``profile`` the
    share runs under ``cProfile`` and its stats ride back in the result."""
    store = _worker_store()
    if state is not None:
        store.sync(state)
    synced = store.generation
    ctx.handles_by_time = [store.handles(t) for t in range(*levels)]
    waits: list[float] = []
    claims = _tickets(order, batch, waits) if batch else iter(order)
    args = (DirectRunner(store.get), command, ctx, work, claims, slot, fair_share)
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        result = profiler.runcall(execute_share, *args)
        profiler.create_stats()
        result.profile_stats = profiler.stats
    else:
        result = execute_share(*args)
    result.idle_s = sum(waits)
    return _ship(result, arena_name, synced)


def _derive_field_task(time_index: int, block_id: int, field_name: str) -> Any:
    return derive_field(_worker_store().get_block(time_index, block_id), field_name)


class ProcessWorkerPool:
    """A work group of OS processes attached to one block store."""

    def __init__(
        self,
        store: ShmBlockStore,
        n_workers: int,
        profile: bool = False,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.store = store
        self.n_workers = n_workers
        #: whether each share runs under ``cProfile`` in its worker.
        self.profile = profile
        # ``fork`` where the platform has it: workers inherit the
        # imported numerics for free.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        # Workers must share the parent's resource tracker: one forked
        # before it runs starts its own when it first maps an arena, and
        # that tracker unlinks the arena as leaked when the worker exits.
        resource_tracker.ensure_running()
        #: shared ticket counter for dynamic drains; created before the
        #: executor so it is inheritable (fork) / spawn-picklable via
        #: initargs — submit() args cannot carry it.
        self._ticket = ctx.Value("q", 0)
        #: result arenas by slot, and the bytes the largest mesh result
        #: each slot has returned needed.  A slot gets its arena before
        #: the run after it first returned meshes, so a pool's first run
        #: allocates nothing and an arena is never larger than one result.
        self._arenas: dict[int, shared_memory.SharedMemory] = {}
        self._arena_wanted: dict[int, int] = {}
        #: the store generation each worker process (by pid) reported
        #: having synced in its last result.
        self._synced: dict[int, int] = {}
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=ctx,
            initializer=_pool_init,
            initargs=(store.manifest(), self._ticket),
        )

    # ------------------------------------------------------------- shares
    def run_shares(
        self, command: Command, ctx: CommandContext, deal: Deal
    ) -> list[ShareResult]:
        """Execute every live unit of ``deal``; one result per slot that
        runs (:meth:`~repro.core.commands.Deal.slots`), in slot order.

        Pre-dealt (``deal.order`` None), slot *i* is sent unit *i* alone;
        otherwise each slot is sent the live units and drains the shared
        counter in ``deal.order``, ``deal.batch`` tickets at a time,
        until it runs out.  Each unit's record keeps its canonical
        ``task_index`` for :func:`~repro.parallel.dynamic.payload_lists`.
        """
        self._require_executor()
        # Workers attached at pool start; ship the derived files the
        # store registered since until each has synced them.
        state = None if self._all_synced() else self.store.worker_state()
        units, order, run = deal.units, deal.order, deal.slots()
        if order is None:
            slots = [({i: units[i]}, [i], i, 0) for i in run]
        else:
            # The pool is quiescent between runs, so the parent can reset
            # the counter without racing a drain.
            with self._ticket.get_lock():
                self._ticket.value = 0
            live = {i: units[i] for i in order}
            slots = [(live, order, w, deal.batch) for w in run]
        # Each worker holds the store's block handles from the manifest
        # it attached; the context crosses the pipe without them.
        bare = dataclasses.replace(ctx, handles_by_time=())
        levels = (ctx.time_offset, ctx.time_offset + ctx.n_timesteps)
        arenas = self._offer_arenas(run)
        return self._gather(
            [
                (_run_slot, command, bare, levels, *slot, deal.fair_share,
                 state, arena, self.profile)
                for slot, arena in zip(slots, arenas)
            ]
        )

    def _all_synced(self) -> bool:
        """Whether every worker process has reported the store's
        current generation."""
        current = [g for g in self._synced.values() if g == self.store.generation]
        return len(current) >= self.n_workers

    # ------------------------------------------------------------- arenas
    def _offer_arenas(self, slots: Sequence[int]) -> list[str | None]:
        """Each running slot's arena name for the coming run (``None``
        until the slot has returned meshes), regrown first where the last
        result overflowed.  The pool is quiescent here, so no worker is
        writing."""
        names: list[str | None] = []
        for slot in slots:
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

    def _gather(self, calls: Sequence[tuple]) -> list[ShareResult]:
        """Submit one ``(fn, *args)`` call per running slot; results in
        slot order, every work unit's meshes gathered into one merged mesh
        (:func:`~repro.parallel.arena.gather_meshes`) in canonical task
        order.  A worker that dies while the calls are still being
        submitted breaks the pool just the same."""
        executor = self._require_executor()
        futures: list[Future] = []
        try:
            for call in calls:
                futures.append(executor.submit(*call))
            shipped = [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerPoolError(
                "a worker process died before finishing its share; "
                "the pool has been shut down"
            ) from exc
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        results: list[ShareResult] = []
        units = []  # (record, its payloads or its arena run)
        for result, packed, counts, synced in shipped:
            slot = result.share_index
            self._synced[result.pid] = synced
            if packed is None:
                needed = meshes_nbytes(result.payloads)
                units += [(rec, rec.payloads) for rec in result.tasks]
            else:
                needed = result.arena_nbytes = packed.nbytes
                runs = packed.runs(self._arenas[slot].buf, counts)
                units += [(rec, [run]) for rec, run in zip(result.tasks, runs)]
            if needed:
                self._arena_wanted[slot] = max(self._arena_wanted.get(slot, 0), needed)
            results.append(result)
        units.sort(key=lambda unit: unit[0].task_index)
        gathered = gather_meshes([payloads for _rec, payloads in units])
        for (rec, _payloads), payloads in zip(units, gathered):
            rec.payloads = payloads
        return results

    def derive_field(
        self,
        keys: Sequence[tuple[int, int]],
        field_name: str = "lambda2",
    ) -> None:
        """Fan a per-block derived-field computation across the pool.

        Each worker reads its block from its map, computes the field at
        float64 and returns it; once every result is in, the parent
        writes them to one new file
        (:meth:`~repro.parallel.shm.ShmBlockStore.add_derived_fields`).
        That moves the store's generation, so already-running workers
        pick the new file up from the state shipped with the next
        shares (see :meth:`run_shares`), and the pool keeps running.
        """
        executor = self._require_executor()
        futures = [
            executor.submit(_derive_field_task, t, b, field_name)
            for t, b in keys
        ]
        try:
            arrays = {key: future.result() for key, future in zip(keys, futures)}
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerPoolError(
                "a worker process died while deriving fields"
            ) from exc
        self.store.add_derived_fields(field_name, arrays)

    # ------------------------------------------------------------ plumbing
    def _require_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise WorkerPoolError("pool is closed")
        return self._executor

    @property
    def closed(self) -> bool:
        return self._executor is None

    @property
    def arena_names(self) -> list[str]:
        """The shared-memory result arenas this pool holds now: the
        only segments the real path creates."""
        return sorted(arena.name for arena in self._arenas.values())

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
