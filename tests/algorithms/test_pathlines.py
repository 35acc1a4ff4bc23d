"""Correctness tests for pathline integration."""

import numpy as np
import pytest

from repro.algorithms import BatchPathlineTracer, Pathline, trace_pathlines
from repro.grids import MultiBlockDataset, StructuredBlock, TimeSeries
from repro.synth import cartesian_lattice


def velocity_dataset(fn, t, shape=(9, 9, 9), lo=(-2, -2, -2), hi=(2, 2, 2), nblocks=1):
    """One time level with analytic velocity ``fn(coords, t)``.

    With ``nblocks`` > 1 the x-range is split into abutting blocks so the
    tracer must cross block boundaries.
    """
    blocks = []
    xs = np.linspace(lo[0], hi[0], nblocks + 1)
    for bid in range(nblocks):
        b_lo = (xs[bid], lo[1], lo[2])
        b_hi = (xs[bid + 1], hi[1], hi[2])
        coords = cartesian_lattice(b_lo, b_hi, shape)
        b = StructuredBlock(coords, block_id=bid)
        b.set_field("velocity", fn(coords, t))
        blocks.append(b)
    return MultiBlockDataset(blocks, time=t)


def series_for(fn, times, **kwargs):
    return TimeSeries(times, lambda i: velocity_dataset(fn, times[i], **kwargs))


def trace_one(series, seed, t_start=None, t_end=None, **kwargs):
    """One seed through the batched tracer (a batch of one)."""
    (path,) = trace_pathlines(series, np.asarray(seed)[None], t_start, t_end, **kwargs)
    return path


def drive(tracer, level, seed, t_start, t_end):
    """Run ``tracer`` on one seed, serving every request from ``level``."""
    gen = tracer.trace_many(np.asarray(seed)[None], t_start, t_end)
    try:
        req = next(gen)
        while True:
            req = gen.send(level[req.block_id])
    except StopIteration as stop:
        return stop.value[0]


def uniform(coords, t):
    v = np.zeros(coords.shape[:-1] + (3,))
    v[..., 0] = 1.0
    return v


def rotation(coords, t):
    x, y = coords[..., 0], coords[..., 1]
    return np.stack([-y, x, np.zeros_like(x)], axis=-1)


def accelerating(coords, t):
    """u = (t, 0, 0): x(t) = x0 + t²/2."""
    v = np.zeros(coords.shape[:-1] + (3,))
    v[..., 0] = t
    return v


def test_uniform_flow_straight_line():
    series = series_for(uniform, [0.0, 1.0, 2.0])
    path = trace_one(series, np.array([-1.5, 0.0, 0.0]), 0.0, 2.0)
    assert path.termination == "end_time"
    np.testing.assert_allclose(path.points[-1], [0.5, 0.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(path.points[:, 1:], 0.0, atol=1e-9)
    assert path.length() == pytest.approx(2.0, abs=1e-6)


def test_rotation_flow_stays_on_circle():
    series = series_for(rotation, [0.0, 4.0])
    r0 = 1.0
    path = trace_one(series, np.array([r0, 0.0, 0.0]), 0.0, 2 * np.pi * 0.9)
    assert path.termination == "end_time"
    radii = np.linalg.norm(path.points[:, :2], axis=1)
    np.testing.assert_allclose(radii, r0, atol=5e-3)


def test_rotation_full_period_returns_to_start():
    series = series_for(rotation, [0.0, 10.0])
    path = trace_one(
        series, np.array([0.8, 0.0, 0.0]), 0.0, 2 * np.pi, rtol=1e-6
    )
    np.testing.assert_allclose(path.points[-1], path.points[0], atol=2e-3)


def test_time_dependent_flow_integrates_correctly():
    """With u=(t,0,0), x(T) - x0 = T²/2; requires temporal interpolation."""
    times = np.linspace(0.0, 2.0, 9).tolist()
    series = series_for(accelerating, times)
    path = trace_one(series, np.array([-1.8, 0.0, 0.0]), 0.0, 2.0)
    assert path.termination == "end_time"
    assert path.points[-1][0] == pytest.approx(-1.8 + 2.0, abs=5e-3)


def test_particle_leaves_domain():
    series = series_for(uniform, [0.0, 100.0])
    path = trace_one(series, np.array([1.0, 0.0, 0.0]), 0.0, 100.0)
    assert path.termination == "left_domain"
    assert path.points[-1][0] <= 2.0 + 1e-6


def test_crossing_block_boundaries():
    series = series_for(uniform, [0.0, 4.0], nblocks=4)
    path = trace_one(series, np.array([-1.9, 0.3, -0.3]), 0.0, 3.5)
    assert path.termination == "end_time"
    np.testing.assert_allclose(path.points[-1], [1.6, 0.3, -0.3], atol=1e-5)


def test_request_log_records_block_stream():
    level = velocity_dataset(uniform, 0.0, nblocks=4)
    tracer = BatchPathlineTracer(level.handles(), [0.0, 4.0], local_cache_blocks=2)
    path = drive(tracer, level, [-1.9, 0.0, 0.0], 0.0, 3.5)
    assert path.termination == "end_time"
    bids = [r.block_id for r in tracer.request_log]
    # Particle moves left to right: block ids appear in increasing order.
    first_seen = {b: bids.index(b) for b in set(bids)}
    order = sorted(first_seen, key=first_seen.get)
    assert order == sorted(order)
    assert set(bids) == {0, 1, 2, 3}


def test_local_cache_eviction_causes_rerequests():
    """A small local cache re-requests blocks on re-entry (circular flow).

    One particle holds at least four blocks (its block on both time
    levels plus stage excursions), so the orbit crosses four blocks on
    two levels: eight (level, block) pairs."""
    level = velocity_dataset(rotation, 0.0, nblocks=4)
    tracer = BatchPathlineTracer(level.handles(), [0.0, 100.0], local_cache_blocks=2)
    drive(tracer, level, [1.5, 0.0, 0.0], 0.0, 4 * np.pi)
    pairs = [(r.time_index, r.block_id) for r in tracer.request_log]
    assert {b for _, b in pairs} == {0, 1, 2, 3}
    # Two revolutions: every (level, block) pair is requested again on
    # re-entry (an unbounded cache requests each pair exactly once).
    assert all(pairs.count(p) >= 2 for p in set(pairs))


def test_tracer_validation():
    level = velocity_dataset(uniform, 0.0)
    with pytest.raises(ValueError):
        BatchPathlineTracer(level.handles(), [])
    with pytest.raises(ValueError):
        BatchPathlineTracer(level.handles(), [0.0, 1.0], local_cache_blocks=1)
    tracer = BatchPathlineTracer(level.handles(), [0.0, 1.0])
    with pytest.raises(ValueError):
        gen = tracer.trace_many(np.zeros((1, 3)), 1.0, 0.5)
        next(gen)


def test_adaptive_step_tightens_for_accuracy():
    """Tighter tolerance produces more steps on curved trajectories."""
    series = series_for(rotation, [0.0, 10.0])
    loose = trace_one(series, np.array([1.0, 0, 0]), 0.0, np.pi, rtol=1e-2)
    tight = trace_one(series, np.array([1.0, 0, 0]), 0.0, np.pi, rtol=1e-8)
    assert tight.n_points > loose.n_points


def test_seed_outside_domain_terminates_immediately():
    series = series_for(uniform, [0.0, 1.0])
    path = trace_one(series, np.array([50.0, 0.0, 0.0]), 0.0, 1.0)
    assert path.termination == "left_domain"
    assert path.n_points == 1


def test_pathline_reset_cache():
    level = velocity_dataset(uniform, 0.0)
    tracer = BatchPathlineTracer(level.handles(), [0.0, 1.0])
    drive(tracer, level, [0.0, 0.0, 0.0], 0.0, 0.5)
    assert tracer.request_log
    tracer.reset_cache()
    assert not tracer.request_log
    assert not tracer._blocks


def test_pathline_dataclass_helpers():
    p = Pathline(
        seed=np.zeros(3),
        points=np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=float),
        times=np.array([0.0, 1.0, 2.0]),
        termination="end_time",
    )
    assert p.n_points == 3
    assert p.length() == pytest.approx(2.0)
