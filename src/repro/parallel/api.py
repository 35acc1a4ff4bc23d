"""High-level multicore extraction: plan like the scheduler, run on cores.

:class:`ParallelExtractor` is the direct-execution sibling of the
simulated :class:`~repro.core.scheduler.Scheduler`: it builds the same
:class:`~repro.core.commands.CommandContext`, asks the same command
classes to :meth:`plan` the same shares, then executes them for real —
either in-process (``executor="serial"``) or fanned out to worker
processes that map the same block files (``executor="process"``).
Both executors interpret identical op streams over identical bytes, so
their merged results are byte-identical; the serial executor is the
reference the equivalence tests pin the process pool against.

Observability lands in :mod:`repro.obs`: every run opens a wall-clock
span, each share's worker-measured interval is imported as a child span
(``parallel-share``), the parent's stretch from the last share's end
to the merged result is a ``parallel-gather`` child, and
counters/histograms for shares, block loads, share and gather seconds
accumulate in a :class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Sequence

from ..core.commands import (
    SCHEDULES,
    Command,
    CommandRegistry,
    command_context,
    deal,
    may_contain,
)
from ..core.costs import DEFAULT_COSTS, CostModel
from ..io.dataset_io import DatasetStore
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanTracer
from ..synth.base import SyntheticDataset
from .arena import payload_nbytes
from .dynamic import CostFeedback, payload_lists
from .pool import ProcessWorkerPool
from .runner import DirectRunner, ShareResult, derive_field, execute_share
from .shm import ShmBlockStore

__all__ = ["ParallelExtractor", "ParallelResult", "EXECUTORS", "SCHEDULES"]

EXECUTORS = ("serial", "process")


@dataclass
class ParallelResult:
    """One extraction: the merged result plus its execution record."""

    command: str
    executor: str
    group_size: int
    result: Any
    shares: list[ShareResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    schedule: str = "static"
    n_culled: int = 0  #: blocks dealt to no one: their stored range excluded the value

    @property
    def n_payloads(self) -> int:
        return sum(len(s.payloads) for s in self.shares)

    @property
    def n_loads(self) -> int:
        return sum(s.n_loads for s in self.shares)

    @property
    def share_seconds(self) -> list[float]:
        return [s.seconds for s in self.shares]

    @property
    def idle_seconds(self) -> float:
        """Total worker idle (claim-lock waits plus post-drain tails)."""
        return sum(s.idle_s for s in self.shares)

    @property
    def steals(self) -> int:
        """Tasks executed beyond static fair shares, summed over workers."""
        return sum(s.steals for s in self.shares)


def _as_shm_store(data: Any) -> tuple[ShmBlockStore, bool]:
    """The mapped block store over ``data``, and whether it is owned
    (cleaned up on ``close``): a :class:`ShmBlockStore` is borrowed; a
    :class:`~repro.io.DatasetStore` is mapped where it lies and a
    :class:`~repro.synth.base.SyntheticDataset` is written once to a
    private directory and mapped there."""
    if isinstance(data, ShmBlockStore):
        return data, False
    if isinstance(data, DatasetStore):
        return ShmBlockStore.from_store(data), True
    if isinstance(data, SyntheticDataset):
        return ShmBlockStore.from_synthetic(data), True
    raise TypeError(
        f"cannot build a ShmBlockStore from {type(data).__name__}; "
        "pass a DatasetStore, a SyntheticDataset or a ShmBlockStore"
    )


class ParallelExtractor:
    """Run post-processing commands on real cores over mapped block files.

    Parameters
    ----------
    data:
        A :class:`~repro.io.DatasetStore`, a
        :class:`~repro.synth.base.SyntheticDataset` (written once to a
        private directory) or a prebuilt :class:`ShmBlockStore`.
    workers:
        Work-group size (defaults to ``os.cpu_count()``).
    executor:
        ``"process"`` fans shares out to worker processes;
        ``"serial"`` runs them in-process over the same store.
    profile:
        Run every pool worker's shares under ``cProfile`` and return
        its stats with each share (:attr:`ShareResult.profile_stats`).
        The serial executor runs in the caller's process, so the
        caller's own profiler already sees its shares.
    """

    def __init__(
        self,
        data: Any,
        workers: int | None = None,
        executor: str = "process",
        registry: CommandRegistry | None = None,
        costs: CostModel = DEFAULT_COSTS,
        observe: bool = True,
        profile: bool = False,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store, self._owns_store = _as_shm_store(data)
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.executor = executor
        if registry is None:
            from ..commands import default_registry

            registry = default_registry()
        self.registry = registry
        self.costs = costs
        self.tracer = SpanTracer(clock=time.perf_counter, enabled=observe)
        self.metrics = MetricsRegistry()
        self.profile = profile
        self._pool: ProcessWorkerPool | None = None
        #: serial-executor runner, kept across run() calls so its
        #: ComputeCached memo (e.g. progressive pyramids) survives
        #: interactive re-extraction with new parameters.
        self._serial_runner = DirectRunner(self.store.get)
        #: measured per-task costs from prior dynamic runs; like the
        #: serial runner's memo it lives as long as the extractor, so a
        #: parameter sweep's second run places work from real timings.
        self.cost_feedback = CostFeedback()
        self._closed = False

    # ---------------------------------------------------------------- run
    def run(
        self,
        command: str | Command,
        params: dict[str, Any] | None = None,
        group_size: int | None = None,
        schedule: str | None = None,
        **command_kwargs: Any,
    ) -> ParallelResult:
        """Deal (:func:`~repro.core.commands.deal`, as the DES does),
        execute and merge one command.  ``schedule`` sets
        ``params["schedule"]``; the params are checked by the command's
        declaration (:class:`~repro.core.commands.ParamError`) before
        anything is derived or any pool starts.

        Unlike the DES, the deal is pruned: where the command names what
        it culls on (:meth:`~repro.core.commands.Command.cull_on`), a
        block whose stored range (:meth:`ShmBlockStore.block_ranges`)
        excludes the value is dealt to no slot and merges as nothing, a
        pre-dealt share the prune empties is sent to no worker, and a
        run the prune empties starts no pool.

        Merged bytes: a dynamic run's equal a static group-1 run's at
        any group size (tasks merge in canonical order), and a static
        run's are equal across executors at equal group size.  Static
        runs at different group sizes merge the same triangles in
        different orders, so their bytes differ.
        """
        self._check_open()
        params = dict(params or {})
        if schedule is not None:
            params["schedule"] = schedule
        if isinstance(command, str):
            cmd = self.registry.create(command, **command_kwargs)
        else:
            if command_kwargs:
                raise TypeError("command_kwargs only apply to registry names")
            cmd = command
        store = self.store
        params = cmd.validate(
            params, store.time_indices, store.field_components, store.times,
        )
        group = group_size if group_size is not None else self.workers
        ctx = command_context(
            cmd, self.store, self.store.time_indices, params, self.costs
        )
        derived = cmd.derived_field(ctx)
        if derived is not None:
            # Derive on need: once per block, before the deal, so it
            # (and every later one) reads the field stored and culls on it.
            self._derive(derived, ctx.time_indices)
        cull = cmd.cull_on(ctx)
        live = None if cull is None else may_contain(
            {t: store.block_ranges(cull[0], t) for t in ctx.time_indices}, cull[1]
        )
        # Dynamic claims start with the costliest units by this
        # extractor's measured seconds (model estimates until measured).
        dealt = deal(
            cmd, ctx, group,
            weights=lambda units: self.cost_feedback.estimates(cmd, ctx, units),
            live=live,
        )
        sched = ctx.params["schedule"]
        run_span = self.tracer.begin(
            "parallel-run",
            cmd.name,
            executor=self.executor,
            group_size=group,
            schedule=sched,
            n_units=len(dealt.units),
            n_live=len(dealt.units) - len(dealt.dead),
            n_culled=len(dealt.culled),
        )
        t0 = time.perf_counter()
        slots = dealt.slots()
        if self.executor == "process" and slots:
            results = self._ensure_pool().run_shares(cmd, ctx, dealt)
            # Tail idle: a worker is done when its share/drain ends but
            # the run lasts until the slowest one finishes.
            t_max = max((r.t_end for r in results), default=0.0)
            for res in results:
                res.idle_s += t_max - res.t_end
        else:
            # In-process slots over the same deal, keys and merge: the
            # pool's byte-identical reference (and a run with no slot).
            # Slot s claims every group-th ticket, the drain of equally fast slots.
            tickets = dealt.tickets()
            results = [
                execute_share(
                    self._serial_runner, cmd, ctx, dealt.units,
                    chain.from_iterable(tickets[slot::dealt.group]), slot,
                    dealt.fair_share,
                )
                for slot in slots
            ]
        records = [rec for res in results for rec in res.tasks]
        if dealt.order is not None:
            self.cost_feedback.record(cmd.name, records, len(dealt.units))
        merged = cmd.merge(payload_lists(records, len(dealt.units), dealt.dead))
        t_merged = time.perf_counter()
        wall = t_merged - t0
        self.tracer.end(run_span, n_shares=len(results))
        self._record(cmd.name, results, wall, run_span, t_merged, len(dealt.culled))
        return ParallelResult(
            command=cmd.name,
            executor=self.executor,
            group_size=group,
            result=merged,
            shares=results,
            wall_seconds=wall,
            schedule=sched,
            n_culled=len(dealt.culled),
        )

    # ------------------------------------------------------------ derive
    def _derive(self, name: str, time_indices: Iterable[int]) -> None:
        """Derive ``name`` for the blocks of these levels that lack it,
        into one file: beside the dataset the store was read from when
        there is one and it can be written, else the store's own
        (:meth:`~repro.parallel.shm.ShmBlockStore.add_derived_fields`).

        Fanned across the pool under ``executor="process"`` (workers
        map the new file with their next task), in-process otherwise.
        """
        keys = self.store.lacking(name, time_indices)
        if not keys:
            return
        with self.tracer.span("parallel-precompute", name, n_blocks=len(keys)):
            if self.executor == "process":
                self._ensure_pool().derive_field(keys, name)
            else:
                self.store.add_derived_fields(name, {
                    key: derive_field(self.store.get_block(*key), name)
                    for key in keys
                })
        self.metrics.gauge(
            "parallel_shm_bytes", help="bytes of the files the block store maps"
        ).set(self.store.nbytes)

    # -------------------------------------------------------------- obs
    def _record(
        self,
        command: str,
        results: Sequence[ShareResult],
        wall: float,
        run_span,
        t_merged: float,
        n_culled: int,
    ) -> None:
        labels = {"command": command, "executor": self.executor}
        self.metrics.counter(
            "parallel_runs_total", labels, help="extraction runs"
        ).inc()
        shares = self.metrics.counter(
            "parallel_shares_total", labels, help="executed work-group shares"
        )
        loads = self.metrics.counter(
            "parallel_blocks_loaded_total", labels, help="block loads by workers"
        )
        self.metrics.counter(
            "parallel_blocks_culled_total",
            labels,
            help="blocks dealt to no one: stored range excluded the value",
        ).inc(n_culled)
        via_arena = self.metrics.counter(
            "parallel_return_arena_bytes_total",
            labels,
            help="payload bytes workers returned through result arenas",
        )
        pickled = self.metrics.counter(
            "parallel_return_pickled_bytes_total",
            labels,
            help="payload bytes workers returned pickled (first run, "
            "non-mesh payloads, arena overflow)",
        )
        seconds = self.metrics.histogram(
            "parallel_share_seconds", labels=labels, help="per-share wall seconds"
        )
        idle = self.metrics.counter(
            "viracocha_parallel_idle_seconds_total",
            labels,
            help="seconds workers spent idle (claim waits + run tails)",
        )
        steals = self.metrics.counter(
            "viracocha_parallel_steals_total",
            labels,
            help="tasks executed beyond a worker's static fair share",
        )
        t_max = max((r.t_end for r in results), default=0.0)
        for res in results:
            shares.inc()
            loads.inc(res.n_loads)
            if self.executor == "process":
                via_arena.inc(res.arena_nbytes)
                if not res.arena_nbytes:
                    pickled.inc(sum(payload_nbytes(p) for p in res.payloads))
            seconds.observe(res.seconds)
            idle.inc(res.idle_s)
            steals.inc(res.steals)
            self.tracer.record_interval(
                "parallel-share",
                f"{command}/share{res.share_index}",
                t_start=res.t_start,
                t_end=res.t_end,
                node=res.share_index,
                parent=run_span,
                pid=res.pid,
                n_loads=res.n_loads,
                n_emits=res.n_emits,
            )
            if res.idle_s > 0.0:
                # Anchored at the run tail (duration is what the
                # critical path folds into the queue phase).
                self.tracer.record_interval(
                    "parallel-idle",
                    f"{command}/share{res.share_index}",
                    t_start=max(t_max - res.idle_s, res.t_start),
                    t_end=t_max,
                    node=res.share_index,
                    parent=run_span,
                    idle_s=res.idle_s,
                    steals=res.steals,
                )
        # The parent's own stretch: from the last share's end to the
        # merged result (result pipe, arena gather, merge).
        t_last = min(t_max, t_merged) if results else t_merged - wall
        self.tracer.record_interval(
            "parallel-gather",
            f"{command}/gather",
            t_start=t_last,
            t_end=t_merged,
            parent=run_span,
        )
        self.metrics.histogram(
            "parallel_gather_seconds",
            labels=labels,
            help="parent seconds from the last share's end to the merged result",
        ).observe(t_merged - t_last)
        self.metrics.histogram(
            "parallel_run_seconds", labels=labels, help="whole-run wall seconds"
        ).observe(wall)
        self.metrics.gauge(
            "parallel_shm_bytes", help="bytes of the files the block store maps"
        ).set(self.store.nbytes)

    # ---------------------------------------------------------- plumbing
    def _ensure_pool(self) -> ProcessWorkerPool:
        if self._pool is None or self._pool.closed:
            self._pool = ProcessWorkerPool(self.store, self.workers, self.profile)
        return self._pool

    def _close_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ParallelExtractor is closed")

    def close(self) -> None:
        """Shut the pool down and release the store (if owned)."""
        if self._closed:
            return
        self._closed = True
        self._close_pool()
        if self._owns_store:
            self.store.cleanup()

    def __enter__(self) -> "ParallelExtractor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
