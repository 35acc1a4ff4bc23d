"""Batched-vs-scalar equivalence for the vectorized particle tracer.

The scalar RK4 :class:`~.scalar_tracer.PathlineTracer` is the test
oracle; the library's batched tracer must reproduce its trajectories (within an rtol-scaled
tolerance — the schemes differ, RK45 vs RK4 step doubling, so exact
equality is not expected), its termination labels, and — despite
coalescing — every particle's individual block-request order.
"""

import numpy as np
import pytest

from repro.algorithms import BatchPathlineTracer, trace_pathlines
from repro.algorithms.pathlines import _bracket_many
from repro.grids import CellLocator
from repro.grids.interpolate import _SMALL_BATCH

from .scalar_tracer import PathlineTracer, _bracket, trace_pathline
from .test_pathlines import (
    accelerating,
    rotation,
    series_for,
    uniform,
)


def shear(coords, t):
    """u = (0.2 + 0.3 y, 0.1 x, 0): mixes seeds across blocks."""
    x, y = coords[..., 0], coords[..., 1]
    return np.stack(
        [0.2 + 0.3 * y, 0.1 * x, np.zeros_like(x)], axis=-1
    )


def seeds_grid(n=8):
    rng = np.random.default_rng(7)
    return rng.uniform(-1.0, 1.0, size=(n, 3)) * np.array([1.0, 1.0, 0.5])


def run_both(fn, times, seeds, t0, t1, rtol=1e-4, **kwargs):
    series = series_for(fn, times, **kwargs.pop("dataset_kwargs", {}))
    scalar = [
        trace_pathline(series, s, t0, t1, rtol=rtol, **kwargs) for s in seeds
    ]
    batched = trace_pathlines(series, seeds, t0, t1, rtol=rtol, **kwargs)
    return scalar, batched


# ------------------------------------------------------- trajectories


def test_batched_matches_scalar_rotation():
    seeds = [np.array([0.8, 0.0, 0.0]), np.array([0.0, 0.5, 0.2]),
             np.array([-0.6, -0.3, -0.1])]
    rtol = 1e-5
    scalar, batched = run_both(rotation, [0.0, 8.0], seeds, 0.0, 2 * np.pi, rtol=rtol)
    for ref, got in zip(scalar, batched):
        assert got.termination == ref.termination == "end_time"
        # Endpoints agree to an rtol-scaled tolerance: both schemes hold
        # per-step error below rtol, so trajectories may drift apart by
        # O(n_steps * rtol * scale).
        tol = rtol * max(len(ref.points), len(got.points)) * 10.0
        np.testing.assert_allclose(got.points[-1], ref.points[-1], atol=tol)
        # Batched RK45 needs no more points than scalar step doubling.
        assert len(got.points) <= len(ref.points) + 1


def test_batched_matches_scalar_time_dependent():
    times = np.linspace(0.0, 2.0, 9).tolist()
    seeds = [np.array([-1.0, y, 0.0]) for y in (-0.5, 0.0, 0.5)]
    scalar, batched = run_both(accelerating, times, seeds, 0.0, 2.0, rtol=1e-4)
    for ref, got in zip(scalar, batched):
        assert got.termination == ref.termination == "end_time"
        # The schemes differ in their temporal-blend error (midpoint vs
        # end-of-step weight) and land on opposite sides of the truth.
        np.testing.assert_allclose(got.points[-1], ref.points[-1], atol=1e-2)
        np.testing.assert_allclose(got.points[-1][0], ref.seed[0] + 2.0, atol=8e-3)


def test_batched_matches_scalar_terminations_mixed():
    """A batch mixing survivors and leavers keeps per-seed labels."""
    seeds = [
        np.array([0.5, 0.0, 0.0]),   # stays (rotation)
        np.array([1.9, 0.0, 0.0]),   # near the boundary in x
        np.array([5.0, 0.0, 0.0]),   # starts outside
    ]
    series = series_for(uniform, [0.0, 4.0])
    scalar = [trace_pathline(series, s, 0.0, 1.0) for s in seeds]
    batched = trace_pathlines(series, seeds, 0.0, 1.0)
    for ref, got in zip(scalar, batched):
        assert got.termination == ref.termination
    assert batched[0].termination == "end_time"
    assert batched[1].termination == "left_domain"
    assert batched[2].termination == "left_domain"
    assert batched[2].n_points == 1


def test_batched_multiblock_crossing_matches_scalar():
    seeds = seeds_grid(6)
    scalar, batched = run_both(
        shear, [0.0, 6.0], list(seeds), 0.0, 5.0,
        dataset_kwargs={"nblocks": 4},
    )
    for ref, got in zip(scalar, batched):
        assert got.termination == ref.termination
        if ref.termination == "end_time":
            np.testing.assert_allclose(got.points[-1], ref.points[-1], atol=2e-2)


def test_batched_seed_order_preserved():
    seeds = seeds_grid(5)
    series = series_for(rotation, [0.0, 4.0])
    batched = trace_pathlines(series, seeds, 0.0, 1.0)
    for seed, path in zip(seeds, batched):
        np.testing.assert_allclose(path.seed, seed)
        np.testing.assert_allclose(path.points[0], seed)


def test_batched_per_particle_release_times():
    """Streakline-style staggered releases integrate to the same end."""
    times = np.linspace(0.0, 2.0, 9).tolist()
    series = series_for(accelerating, times)
    releases = np.array([0.0, 0.5, 1.0])
    seeds = np.tile([-1.0, 0.0, 0.0], (3, 1))
    batched = trace_pathlines(series, seeds, t_start=releases, t_end=2.0)
    for t0, path in zip(releases, batched):
        assert path.termination == "end_time"
        assert path.times[0] == pytest.approx(t0)
        expected = -1.0 + (4.0 - t0 * t0) / 2.0
        np.testing.assert_allclose(path.points[-1][0], expected, atol=5e-3)


def swirl(coords, t):
    """Time-dependent shear with a vertical swirl: crosses blocks."""
    x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
    return np.stack(
        [0.35 + 0.3 * y + 0.05 * t, 0.1 * x - 0.2 * z, 0.15 * y * (1.0 + t)],
        axis=-1,
    )


def test_sweep_groups_trace_bit_identical_to_lone_seeds(monkeypatch):
    """A batch big enough that its block groups exceed ``_SMALL_BATCH``
    takes the vectorised locate/interpolate sweep; each seed traced
    alone takes the per-point kernels.  Every path must match bit for
    bit, so the two group paths are interchangeable."""
    group_sizes = []
    sweep = CellLocator.locate_many

    def spy(self, points, *args, **kwargs):
        group_sizes.append(len(points))
        return sweep(self, points, *args, **kwargs)

    monkeypatch.setattr(CellLocator, "locate_many", spy)
    rng = np.random.default_rng(29)
    seeds = np.array([-0.6, 0.1, 0.0]) + rng.uniform(-0.15, 0.15, size=(20, 3))
    series = series_for(swirl, [0.0, 1.5, 3.0, 4.5, 6.0], nblocks=4)
    batch = trace_pathlines(series, seeds, 0.0, 5.0, rtol=1e-4)
    assert max(group_sizes) > _SMALL_BATCH
    group_sizes.clear()
    for seed, got in zip(seeds, batch):
        (alone,) = trace_pathlines(series, seed[None], 0.0, 5.0, rtol=1e-4)
        assert np.array_equal(got.points, alone.points)
        assert np.array_equal(got.times, alone.times)
        assert got.termination == alone.termination
    assert group_sizes == []
    assert {p.termination for p in batch} >= {"end_time", "left_domain"}


# ------------------------------------------------- request coalescing


def test_coalescing_preserves_per_particle_order():
    """Each particle's demand stream is a subsequence of the coalesced
    request log (so the Markov prefetcher still sees a causal stream)."""
    seeds = seeds_grid(8)
    series = series_for(shear, [0.0, 6.0], nblocks=4)
    handles = series.level(0).handles()
    tracer = BatchPathlineTracer(handles, series.times, rtol=1e-4)
    gen = tracer.trace_many(seeds, 0.0, 5.0)
    try:
        request = next(gen)
        while True:
            request = gen.send(series.level(request.time_index)[request.block_id])
    except StopIteration:
        pass
    log = [(r.time_index, r.block_id) for r in tracer.request_log]
    assert len(log) == len(tracer.request_triggers)
    assert tracer.demand_log  # at least one particle demanded blocks
    pids = set(tracer.request_triggers)
    assert pids  # coalesced requests still carry their trigger
    for pid in pids:
        # The requests a particle triggered must appear in the order it
        # demanded blocks — coalescing drops duplicate loads (cache
        # hits emit no request) but never reorders one particle's
        # block-entry stream.
        triggered = [
            log[i] for i, t in enumerate(tracer.request_triggers) if t == pid
        ]
        stream = iter(tracer.demand_log[pid])
        assert all(entry in stream for entry in triggered), (
            f"particle {pid} requests {triggered} out of order vs "
            f"demands {tracer.demand_log[pid]}"
        )


def test_coalescing_emits_each_block_once_per_superstep():
    """16 co-located particles demand each (level, block) pair once."""
    seeds = np.tile([0.5, 0.2, 0.1], (16, 1)) + np.linspace(
        0, 0.01, 16
    ).reshape(-1, 1) * np.array([1.0, 0.0, 0.0])
    series = series_for(rotation, [0.0, 4.0])
    handles = series.level(0).handles()
    batch = BatchPathlineTracer(handles, series.times, rtol=1e-4)
    gen = batch.trace_many(seeds, 0.0, 2.0)
    try:
        request = next(gen)
        while True:
            request = gen.send(series.level(request.time_index)[request.block_id])
    except StopIteration:
        pass
    n_batch = len(batch.request_log)

    scalar = PathlineTracer(handles, series.times, rtol=1e-4)
    n_scalar = 0
    for s in seeds:
        scalar.reset_cache()  # cold cache per particle, as on a worker
        gen = scalar.trace(s, 0.0, 2.0)
        try:
            request = next(gen)
            while True:
                request = gen.send(
                    series.level(request.time_index)[request.block_id]
                )
        except StopIteration:
            pass
        n_scalar += len(scalar.request_log)
    # One block on one time level: the batch demands it once per level,
    # the scalar tracer once per particle per level.
    assert n_batch < n_scalar
    assert n_batch <= len(series.times) * len(handles)


def test_batched_fewer_samples_than_scalar():
    """RK45 embedded error control beats RK4 step doubling on samples."""
    seeds = seeds_grid(8)
    series = series_for(rotation, [0.0, 8.0])
    handles = series.level(0).handles()
    scalar_samples = 0
    for s in seeds:
        tr = PathlineTracer(handles, series.times, rtol=1e-5)
        gen = tr.trace(s, 0.0, 2 * np.pi)
        try:
            request = next(gen)
            while True:
                request = gen.send(series.level(request.time_index)[request.block_id])
        except StopIteration:
            pass
        scalar_samples += tr.samples
    batch = BatchPathlineTracer(handles, series.times, rtol=1e-5)
    gen = batch.trace_many(seeds, 0.0, 2 * np.pi)
    try:
        request = next(gen)
        while True:
            request = gen.send(series.level(request.time_index)[request.block_id])
    except StopIteration:
        pass
    assert batch.samples < scalar_samples / 2


# ------------------------------------------------------------ helpers


def test_bracket_many_matches_scalar():
    times = np.array([0.0, 1.0, 2.5, 4.0])
    queries = np.array([-1.0, 0.0, 0.3, 1.0, 1.7, 2.5, 3.9, 4.0, 7.0])
    lo, hi, w = _bracket_many(times, queries)
    for i, t in enumerate(queries):
        slo, shi, sw = _bracket(times, float(t))
        assert (lo[i], hi[i]) == (slo, shi)
        assert w[i] == pytest.approx(sw)


def test_trace_many_validation():
    series = series_for(uniform, [0.0, 1.0])
    handles = series.level(0).handles()
    tracer = BatchPathlineTracer(handles, series.times)
    with pytest.raises(ValueError):
        gen = tracer.trace_many(np.zeros((2, 3)), 1.0, 0.5)
        next(gen)


def test_trace_many_empty_batch():
    series = series_for(uniform, [0.0, 1.0])
    handles = series.level(0).handles()
    tracer = BatchPathlineTracer(handles, series.times)
    gen = tracer.trace_many(np.empty((0, 3)))
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == []


def test_batch_reset_cache_clears_coalescing_state():
    seeds = seeds_grid(3)
    series = series_for(uniform, [0.0, 2.0])
    tracer = BatchPathlineTracer(series.level(0).handles(), series.times)
    gen = tracer.trace_many(seeds, 0.0, 1.0)
    try:
        request = next(gen)
        while True:
            request = gen.send(series.level(request.time_index)[request.block_id])
    except StopIteration:
        pass
    assert tracer.request_log and tracer.demand_log
    tracer.reset_cache()
    assert not tracer.request_log
    assert not tracer.request_triggers
    assert not tracer.demand_log
