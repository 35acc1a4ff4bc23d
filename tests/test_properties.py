"""Cross-cutting property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    active_cell_indices,
    extract_block_isosurface,
    iter_view_dependent_batches,
    trace_pathlines,
)
from repro.des import Environment
from repro.grids import MultiBlockDataset, StructuredBlock, TimeSeries
from repro.synth import cartesian_lattice, fit_modeled_shapes, warp_lattice, BYTES_PER_POINT


def scalar_block(seed, shape=(8, 8, 8)):
    rng = np.random.default_rng(seed)
    coords = warp_lattice(
        cartesian_lattice((0, 0, 0), (1, 1, 1), shape), amplitude=0.02
    )
    b = StructuredBlock(coords)
    # A smooth random field: superposition of a few low-frequency modes.
    x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
    f = np.zeros(shape)
    for _ in range(3):
        k = rng.uniform(1.0, 4.0, size=3)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        f += rng.uniform(0.3, 1.0) * (
            np.sin(k[0] * x + phase[0])
            * np.sin(k[1] * y + phase[1])
            * np.sin(k[2] * z + phase[2])
        )
    b.set_field("s", f)
    return b


@given(seed=st.integers(0, 50), level=st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_isosurface_vertices_inside_block_bounds(seed, level):
    b = scalar_block(seed)
    lo, hi = b.scalar_range("s")
    isovalue = lo + level * (hi - lo)
    mesh = extract_block_isosurface(b, "s", isovalue)
    if mesh.is_empty():
        return
    bounds = b.bounds()
    eps = 1e-9
    assert np.all(mesh.vertices >= bounds[0] - eps)
    assert np.all(mesh.vertices <= bounds[1] + eps)


@given(seed=st.integers(0, 50), level=st.floats(0.1, 0.9))
@settings(max_examples=20, deadline=None)
def test_isosurface_triangle_budget(seed, level):
    """Six tets per cell, at most two triangles per tet."""
    b = scalar_block(seed)
    lo, hi = b.scalar_range("s")
    isovalue = lo + level * (hi - lo)
    active = active_cell_indices(b, "s", isovalue)
    mesh = extract_block_isosurface(b, "s", isovalue, cell_indices=active)
    assert mesh.n_triangles <= 12 * len(active)


@given(seed=st.integers(0, 50), level=st.floats(0.2, 0.8), batch=st.integers(1, 200))
@settings(max_examples=15, deadline=None)
def test_streamed_equals_batch_for_any_batch_size(seed, level, batch):
    b = scalar_block(seed, shape=(6, 6, 6))
    lo, hi = b.scalar_range("s")
    isovalue = lo + level * (hi - lo)
    reference = extract_block_isosurface(b, "s", isovalue)
    fragments = list(
        iter_view_dependent_batches(b, "s", isovalue, np.zeros(3), max_triangles=batch)
    )
    assert sum(f.n_triangles for f in fragments) == reference.n_triangles
    total_area = sum(f.area() for f in fragments)
    assert total_area == pytest.approx(reference.area(), rel=1e-9)


@given(
    vx=st.floats(-1.0, 1.0),
    vy=st.floats(-1.0, 1.0),
    vz=st.floats(-1.0, 1.0),
)
@settings(max_examples=15, deadline=None)
def test_pathline_uniform_flow_exact_displacement(vx, vy, vz):
    v = np.array([vx, vy, vz])

    def field(coords, t):
        out = np.zeros(coords.shape[:-1] + (3,))
        out[...] = v
        return out

    def level(i):
        b = StructuredBlock(cartesian_lattice((-3, -3, -3), (3, 3, 3), (7, 7, 7)))
        b.set_field("velocity", field(b.coords, float(i)))
        return MultiBlockDataset([b], time=float(i))

    series = TimeSeries([0.0, 2.0], level)
    (path,) = trace_pathlines(series, np.zeros((1, 3)), 0.0, 1.0)
    if path.termination == "end_time":
        np.testing.assert_allclose(path.points[-1], v * 1.0, atol=1e-6)
    elif path.termination == "stagnant":
        # Zero (or vanishing) velocity: the particle never moves.
        np.testing.assert_allclose(path.points[-1], 0.0, atol=1e-9)
    else:
        # Fast particles legitimately exit the [-3, 3] box.
        assert np.linalg.norm(v) > 0


@given(
    n_blocks=st.integers(1, 20),
    dims=st.tuples(st.integers(3, 12), st.integers(3, 12), st.integers(3, 12)),
    gb=st.floats(0.05, 30.0),
    steps=st.integers(1, 80),
)
@settings(max_examples=40, deadline=None)
def test_fit_modeled_shapes_hits_any_target(n_blocks, dims, gb, steps):
    target = int(gb * 1024**3)
    shapes = [dims] * n_blocks
    modeled = fit_modeled_shapes(shapes, target, steps)
    total = sum(a * b * c for a, b, c in modeled) * steps * BYTES_PER_POINT
    # The fit is quantized: identical cube-ish blocks all jump a whole
    # grid plane per axis at the same scale factor, so the closest
    # achievable total sits within half of one such jump.  Allow that
    # exact granularity (plus slack), floored at 10 % for large shapes
    # where quantization is fine.
    k = min(min(shape) for shape in modeled)
    half_jump = ((k + 1) ** 3 - k**3) / (2 * k**3)
    tolerance = max(0.10, half_jump + 0.01)
    assert abs(total - target) / target < tolerance


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_des_events_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def proc(d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert fired == sorted(fired)
    assert env.now == max(delays)
