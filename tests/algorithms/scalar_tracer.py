"""The scalar RK4 particle tracer: the test oracle for the batched one.

:class:`PathlineTracer` integrates one particle at a time with classical
RK4 and step-doubling error control, separately on the two bracketing
time levels (§6.3).  The library ships only the batched RK45 tracer
(:class:`~repro.algorithms.pathlines.BatchPathlineTracer`); this
independent scheme is what its trajectories, termination labels and
request streams are compared against.  It speaks the same block request
protocol, finds candidate blocks with the one-point
:func:`topology_candidates` and locates points with the one-point oracle
locator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Sequence

import numpy as np

from repro.algorithms.pathlines import BlockRequest, Pathline
from repro.grids.block import BlockHandle, StructuredBlock
from repro.grids.multiblock import TimeSeries
from repro.grids.topology import BlockTopology

from ..grids.scalar_locator import ScalarCellLocator

__all__ = ["topology_candidates", "PathlineTracer", "trace_pathline"]


class _OutOfDomain(Exception):
    pass


def topology_candidates(topology: BlockTopology, point: np.ndarray) -> list[int]:
    """Blocks whose (padded) bbox contains ``point``, nearest-center first:
    the one-point oracle for :meth:`BlockTopology.candidates_many`."""
    p = np.asarray(point, dtype=np.float64)
    ids = topology.block_ids
    mask = np.all((p >= topology._lows) & (p <= topology._highs), axis=1)
    hits = [ids[i] for i in np.nonzero(mask)[0]]
    if len(hits) > 1:
        centers = {
            bid: 0.5
            * (
                np.asarray(topology.handles[bid].bounds_min)
                + np.asarray(topology.handles[bid].bounds_max)
            )
            for bid in hits
        }
        hits.sort(key=lambda bid: float(np.sum((centers[bid] - p) ** 2)))
    return hits


class PathlineTracer:
    """RK4(adaptive) particle tracer over a multi-block time series."""

    def __init__(
        self,
        handles: Sequence[BlockHandle],
        times: Sequence[float],
        velocity: str = "velocity",
        rtol: float = 1e-4,
        h_initial: float | None = None,
        h_min_factor: float = 1e-3,
        h_max_factor: float = 0.5,
        max_steps: int = 2000,
        local_cache_blocks: int = 8,
    ):
        if len(times) < 1:
            raise ValueError("need at least one time level")
        if local_cache_blocks < 2:
            raise ValueError("local cache needs >= 2 blocks (two time levels)")
        self.topology = BlockTopology(handles)
        self.times = [float(t) for t in times]
        self.velocity = velocity
        self.rtol = rtol
        span = (self.times[-1] - self.times[0]) or 1.0
        self.h_initial = h_initial if h_initial is not None else span / 100.0
        self.h_min = h_min_factor * self.h_initial
        self.h_max = h_max_factor * span
        self.max_steps = max_steps
        self.local_cache_blocks = local_cache_blocks
        # Local state: bounded block cache + per-block locators.
        self._blocks: OrderedDict[tuple[int, int], StructuredBlock] = OrderedDict()
        self._locators: dict[tuple[int, int], ScalarCellLocator] = {}
        self._cell_hints: dict[int, tuple[int, int, int]] = {}
        self.request_log: list[BlockRequest] = []
        self.samples = 0  #: velocity samples taken (drives cost charging)

    # ------------------------------------------------------ block access
    def _get_block(
        self, time_index: int, block_id: int
    ) -> Generator[BlockRequest, StructuredBlock, StructuredBlock]:
        key = (time_index, block_id)
        block = self._blocks.get(key)
        if block is not None:
            self._blocks.move_to_end(key)
            return block
        request = BlockRequest(time_index, block_id)
        self.request_log.append(request)
        block = yield request
        if block is None:
            raise _OutOfDomain(f"no data for {request}")
        self._blocks[key] = block
        self._locators[key] = ScalarCellLocator(block)
        while len(self._blocks) > self.local_cache_blocks:
            old_key, _ = self._blocks.popitem(last=False)
            del self._locators[old_key]
        return block

    def _sample_level(
        self, point: np.ndarray, time_index: int
    ) -> Generator[BlockRequest, StructuredBlock, np.ndarray]:
        """Velocity at ``point`` on frozen time level ``time_index``."""
        self.samples += 1
        candidates = []
        hint_bid = None
        # Try the block that contained the particle last (cheap walk).
        for bid, hint in list(self._cell_hints.items()):
            candidates.append((bid, hint))
            hint_bid = bid
            break
        for bid in topology_candidates(self.topology, point):
            if bid != hint_bid:
                candidates.append((bid, self._cell_hints.get(bid)))
        for bid, hint in candidates:
            block = yield from self._get_block(time_index, bid)
            locator = self._locators[(time_index, bid)]
            found = locator.locate(point, hint=hint)
            if found is None and hint is not None:
                found = locator.locate(point)
            if found is not None:
                cell, rst = found
                self._cell_hints.clear()
                self._cell_hints[bid] = cell
                return np.asarray(locator.interpolate(self.velocity, cell, rst))
        raise _OutOfDomain(f"point {point} outside all blocks")

    # -------------------------------------------------------- integration
    def _rk4_level(
        self, x: np.ndarray, h: float, time_index: int
    ) -> Generator[BlockRequest, StructuredBlock, np.ndarray]:
        """One classical RK4 step on a frozen time level."""
        k1 = yield from self._sample_level(x, time_index)
        k2 = yield from self._sample_level(x + 0.5 * h * k1, time_index)
        k3 = yield from self._sample_level(x + 0.5 * h * k2, time_index)
        k4 = yield from self._sample_level(x + h * k3, time_index)
        return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def _step(
        self, x: np.ndarray, t: float, h: float
    ) -> Generator[BlockRequest, StructuredBlock, np.ndarray]:
        """Advance by ``h``: separate steps on both bracketing levels,
        then interpolate with respect to the elapsed time (paper §6.3)."""
        lo, hi, _w = _bracket(self.times, t)
        x_lo = yield from self._rk4_level(x, h, lo)
        if hi == lo:
            return x_lo
        x_hi = yield from self._rk4_level(x, h, hi)
        lo_end, _, w_end = _bracket(self.times, t + h)
        # Weight of the upper level at the *end* of the step; if the step
        # crossed into the next bracket, clamp to pure upper level.
        if t + h >= self.times[hi] or lo_end != lo:
            w_end = 1.0
        return (1.0 - w_end) * x_lo + w_end * x_hi

    def trace(
        self,
        seed: np.ndarray,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> Generator[BlockRequest, StructuredBlock, Pathline]:
        """Generator protocol: yields block requests, returns a Pathline."""
        seed = np.asarray(seed, dtype=np.float64)
        t0 = self.times[0] if t_start is None else float(t_start)
        t1 = self.times[-1] if t_end is None else float(t_end)
        if t1 <= t0:
            raise ValueError(f"t_end ({t1}) must exceed t_start ({t0})")
        self._cell_hints.clear()
        points = [seed.copy()]
        times = [t0]
        x, t = seed.copy(), t0
        h = min(self.h_initial, t1 - t0)
        termination = "max_steps"
        for _ in range(self.max_steps):
            try:
                x_new = yield from self._adaptive_step(x, t, h)
                x, result_h = x_new
            except _OutOfDomain:
                termination = "left_domain"
                break
            t += result_h
            points.append(x.copy())
            times.append(t)
            h = min(self._next_h, self.h_max, max(t1 - t, self.h_min))
            if t >= t1 - 1e-12:
                termination = "end_time"
                break
            if np.linalg.norm(points[-1] - points[-2]) < 1e-14:
                termination = "stagnant"
                break
        return Pathline(
            seed=seed,
            points=np.asarray(points),
            times=np.asarray(times),
            termination=termination,
        )

    def _adaptive_step(
        self, x: np.ndarray, t: float, h: float
    ) -> Generator[BlockRequest, StructuredBlock, tuple[np.ndarray, float]]:
        """Step doubling: compare one h-step against two h/2-steps."""
        scale = max(float(np.linalg.norm(x)), 1.0)
        while True:
            x_full = yield from self._step(x, t, h)
            x_half = yield from self._step(x, t, 0.5 * h)
            x_half2 = yield from self._step(x_half, t + 0.5 * h, 0.5 * h)
            err = float(np.linalg.norm(x_full - x_half2)) / scale
            if err <= self.rtol or h <= self.h_min * (1 + 1e-9):
                # Accept the more accurate two-half-step result.
                if err < self.rtol / 32.0:
                    self._next_h = min(2.0 * h, self.h_max)
                else:
                    self._next_h = h
                return x_half2, h
            h = max(0.5 * h, self.h_min)

    _next_h: float = 0.0

    # -------------------------------------------------------- convenience
    def reset_cache(self) -> None:
        self._blocks.clear()
        self._locators.clear()
        self._cell_hints.clear()
        self.request_log.clear()
        self.samples = 0


def _bracket(times: list[float], t: float) -> tuple[int, int, float]:
    if t <= times[0]:
        return 0, 0, 0.0
    if t >= times[-1]:
        n = len(times) - 1
        return n, n, 0.0
    hi = int(np.searchsorted(times, t, side="right"))
    lo = hi - 1
    return lo, hi, (t - times[lo]) / (times[hi] - times[lo])


def trace_pathline(
    series: TimeSeries,
    seed: np.ndarray,
    t_start: float | None = None,
    t_end: float | None = None,
    **tracer_kwargs,
) -> Pathline:
    """Serial convenience wrapper: drive the tracer from a TimeSeries."""
    level0 = series.level(0)
    handles = level0.handles()
    tracer = PathlineTracer(handles, series.times, **tracer_kwargs)
    gen = tracer.trace(seed, t_start, t_end)
    try:
        request = next(gen)
        while True:
            block = series.level(request.time_index)[request.block_id]
            request = gen.send(block)
    except StopIteration as stop:
        return stop.value
