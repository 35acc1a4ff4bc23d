"""End-to-end integration tests: session → scheduler → workers → client."""

import hashlib

import numpy as np
import pytest

from repro.algorithms import extract_isosurface, extract_vortices, trace_pathlines
from repro.dms import DMSConfig
from repro.grids import TimeSeries
from tests.conftest import cached_engine, paper_session


@pytest.fixture(scope="module")
def engine():
    return cached_engine(5, 4)


def make_session(engine, n_workers=2, **kwargs):
    return paper_session(engine, n_workers, **kwargs)


ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 2)}


def test_iso_result_matches_direct_extraction(engine):
    """The framework's merged geometry equals the library-level result."""
    session = make_session(engine, 3)
    result = session.run("iso-dataman", params=ISO)
    direct = [extract_isosurface(engine.level(t), "pressure", -0.3) for t in (0, 1)]
    expected = sum(m.n_triangles for m in direct)
    assert result.geometry.n_triangles == expected
    assert result.geometry.area() == pytest.approx(
        sum(m.area() for m in direct), rel=1e-9
    )


def test_streamed_iso_same_geometry_as_batch(engine):
    session = make_session(engine, 2)
    batch = session.run("iso-dataman", params=ISO)
    streamed = session.run(
        "iso-viewer", params={**ISO, "viewpoint": (0, 0, -5), "max_triangles": 300}
    )
    assert streamed.geometry.n_triangles == batch.geometry.n_triangles
    assert streamed.geometry.area() == pytest.approx(batch.geometry.area(), rel=1e-9)


def test_vortex_result_matches_direct(engine):
    session = make_session(engine, 2)
    params = {"threshold": -0.5, "time_range": (0, 1)}
    result = session.run("vortex-dataman", params=params)
    direct = extract_vortices(engine.level(0), threshold=-0.5)
    assert result.geometry.n_triangles == direct.n_triangles


def test_streamed_vortex_same_geometry(engine):
    session = make_session(engine, 2)
    params = {"threshold": -0.5, "time_range": (0, 1)}
    batch = session.run("vortex-dataman", params=params)
    streamed = session.run("vortex-streamed", params={**params, "batch_cells": 30})
    assert streamed.geometry.n_triangles == batch.geometry.n_triangles


def test_streaming_reduces_latency(engine):
    session = make_session(engine, 2)
    batch = session.run("vortex-dataman", params={"threshold": -0.5, "time_range": (0, 2)})
    streamed = session.run(
        "vortex-streamed", params={"threshold": -0.5, "time_range": (0, 2), "batch_cells": 30}
    )
    assert streamed.latency < batch.latency
    assert batch.latency == pytest.approx(batch.total_runtime)
    assert streamed.n_packets > batch.n_packets


def test_dms_beats_simple(engine):
    session = make_session(engine, 2)
    simple = session.run("iso-simple", params=ISO)
    session.run("iso-dataman", params=ISO)  # warm the cache
    dataman = session.run("iso-dataman", params=ISO)
    assert dataman.total_runtime < simple.total_runtime
    assert dataman.dms["misses"] == 0
    assert simple.geometry.n_triangles == dataman.geometry.n_triangles


def test_warm_cache_removes_read_time(engine):
    session = make_session(engine, 2)
    cold = session.run("iso-dataman", params=ISO)
    warm = session.run("iso-dataman", params=ISO)
    assert cold.breakdown["read"] > 0
    assert warm.breakdown["read"] == pytest.approx(0.0, abs=1e-6)
    assert warm.total_runtime < cold.total_runtime


def test_more_workers_reduce_runtime(engine):
    times = {}
    for nw in (1, 2, 4):
        session = make_session(engine, nw)
        session.run("iso-dataman", params=ISO)
        times[nw] = session.run("iso-dataman", params=ISO).total_runtime
    assert times[4] < times[2] < times[1]


def test_group_size_subset_of_workers(engine):
    session = make_session(engine, 4)
    r2 = session.run("iso-dataman", params=ISO, group_size=2)
    assert r2.group_size == 2
    with pytest.raises(ValueError):
        session.run("iso-dataman", params=ISO, group_size=9)


def test_invalid_time_range_rejected(engine):
    session = make_session(engine, 2)
    with pytest.raises(ValueError):
        session.run("iso-dataman", params={"isovalue": 0.0, "time_range": (0, 99)})
    with pytest.raises(ValueError):
        session.run("iso-dataman", params={"isovalue": 0.0, "time_range": (2, 2)})


def test_pathlines_through_framework(engine):
    session = make_session(engine, 2)
    seeds = [[0.2, 0.1, 0.8], [-0.3, 0.2, 1.0], [0.1, -0.2, 0.6]]
    result = session.run(
        "pathlines-dataman",
        params={"seeds": seeds, "time_range": (0, 4), "max_steps": 60, "rtol": 1e-2},
    )
    paths = result.payloads[0]
    assert len(paths) == 3
    for p in paths:
        assert p.n_points >= 1
        assert p.termination in {"end_time", "left_domain", "max_steps", "stagnant"}


def test_pathlines_match_serial_tracer(engine):
    from repro.algorithms.pathlines import trace_pathlines

    from ..algorithms.scalar_tracer import trace_pathline

    seeds = [[0.2, 0.1, 0.8]]
    kwargs = dict(max_steps=60, rtol=1e-2, local_cache_blocks=8)
    session = make_session(engine, 1)
    # The command path matches the serial batched driver.
    result = session.run(
        "pathlines-dataman",
        params={"seeds": seeds, "time_range": (0, 4), **kwargs},
    )
    series = TimeSeries(engine.spec.times, engine.level)
    serial_batched = trace_pathlines(series, np.array(seeds), **kwargs)[0]
    framework_path = result.payloads[0][0]
    assert framework_path.termination == serial_batched.termination
    np.testing.assert_allclose(framework_path.points, serial_batched.points, atol=1e-9)
    # The scalar RK4 oracle, driven directly on the same series, follows
    # the same trajectory to within the schemes' rtol-scaled drift.
    serial = trace_pathline(series, np.array(seeds[0]), **kwargs)
    assert framework_path.termination == serial.termination
    tol = kwargs["rtol"] * max(len(serial.points), len(framework_path.points))
    np.testing.assert_allclose(framework_path.points[-1], serial.points[-1], atol=tol)


def test_cutplane_through_framework(engine):
    session = make_session(engine, 2)
    result = session.run(
        "cutplane",
        params={"normal": (0, 0, 1.0), "offset": 1.0, "time_range": (0, 1)},
    )
    assert result.geometry.n_triangles > 0
    np.testing.assert_allclose(result.geometry.vertices[:, 2], 1.0, atol=1e-9)


def test_progressive_iso_streams_levels(engine):
    session = make_session(engine, 2)
    result = session.run(
        "iso-progressive",
        params={"isovalue": -0.3, "time_range": (0, 1), "max_levels": 3},
    )
    assert result.n_packets > 1
    levels = [
        p.attributes["level"][0]
        for p in result.payloads
        if hasattr(p, "attributes") and "level" in p.attributes
    ]
    assert levels, "expected level-tagged packets"
    # Within one block, coarse levels arrive before fine ones.
    assert min(levels) == 0


def test_adaptive_loading_can_be_disabled(engine):
    session = make_session(engine, 2, adaptive_loading=False)
    session.run("iso-dataman", params=ISO)
    decisions = session.scheduler.server.selector.decisions
    assert decisions.get("node-transfer", 0) == 0
    assert decisions["fileserver"] > 0


def test_dms_config_l2_spill(engine):
    nbytes = max(
        engine.spec.block_bytes(b) for b in range(engine.spec.n_blocks)
    )
    cfg = DMSConfig(l1_capacity=3 * nbytes, l2_capacity=100 * nbytes)
    session = make_session(engine, 1, dms_config=cfg)
    result = session.run("iso-dataman", params=ISO)
    l2 = session.scheduler.workers[0].proxy.cache.l2
    assert l2 is not None and len(l2) > 0


def test_result_breakdown_and_packets_consistency(engine):
    session = make_session(engine, 2)
    r = session.run(
        "iso-viewer", params={**ISO, "viewpoint": (0, 0, -5), "max_triangles": 200}
    )
    assert r.n_packets == len(r.packet_times)
    assert all(t >= 0 for t in r.packet_times)
    assert r.latency <= r.total_runtime
    assert r.breakdown["compute"] > 0
    assert sum(r.breakdown.values()) > 0


def test_client_frame_rate_check(engine):
    session = make_session(engine, 2)
    report = session.run("iso-dataman", params=ISO).interaction_report()
    assert report["frame_rate_ok"]
    assert report["frame_rate_hz"] > 10.0


def _sorted_triangle_rows(mesh):
    rows = mesh.vertices.reshape(-1, 9)
    return rows[np.lexsort(rows.T[::-1])]


def test_framework_geometry_matches_library(engine):
    """One worker emits the library's bytes; two emit the same triangles
    in another fragment order."""
    direct = extract_isosurface(engine.level(0), "pressure", -0.3)
    assert direct.n_triangles > 0
    session = make_session(engine, 2)
    params = {**ISO, "time_range": (0, 1)}
    one = session.run("iso-dataman", params=params, group_size=1).geometry
    assert (
        hashlib.sha256(one.vertices.tobytes()).hexdigest()
        == hashlib.sha256(direct.vertices.tobytes()).hexdigest()
    )
    two = session.run("iso-dataman", params=params, group_size=2).geometry
    np.testing.assert_array_equal(
        _sorted_triangle_rows(two), _sorted_triangle_rows(direct)
    )


def test_framework_pathlines_match_library_bytes(engine):
    """The command traces with the library's tracer: same bytes."""
    series = TimeSeries(engine.spec.times, engine.level)
    seeds = [[0.2, 0.1, 0.8], [-0.3, 0.2, 1.0], [0.1, -0.2, 0.6]]
    tracer_kwargs = dict(rtol=1e-3, max_steps=400, local_cache_blocks=8)
    direct = trace_pathlines(series, np.asarray(seeds), **tracer_kwargs)
    result = make_session(engine, 1).run(
        "pathlines-dataman",
        params={"seeds": seeds, "time_range": (0, len(series.times)), **tracer_kwargs},
        group_size=1,
    )
    framework = result.payloads[0]
    assert len(framework) == len(direct) == len(seeds)
    for got, ref in zip(framework, direct):
        assert got.termination == ref.termination
        assert got.points.tobytes() == ref.points.tobytes()
        assert got.times.tobytes() == ref.times.tobytes()


def test_interaction_report(engine):
    result = make_session(engine, 2).run(
        "iso-viewer",
        params={
            "isovalue": -0.3,
            "scalar": "pressure",
            "time_range": (0, 1),
            "viewpoint": (0, 0, -5),
            "max_triangles": 200,
        },
    )
    report = result.interaction_report()
    assert report["frame_rate_ok"] is True
    assert report["first_feedback_s"] == pytest.approx(result.latency)
    # Extraction latencies exceed 100 ms — the §1.2 point that the
    # response-time criterion "cannot be granted automatically".
    assert report["response_time_ok"] is False
