"""Tests for the direct post-processing facade."""

import numpy as np
import pytest

from repro import build_engine
from repro import postprocess as pp
from repro.viz import PolylineSet, TriangleMesh


@pytest.fixture(scope="module")
def engine():
    return build_engine(base_resolution=5, n_timesteps=4)


@pytest.fixture(scope="module")
def level(engine):
    return engine.level(0)


@pytest.fixture(scope="module")
def series(engine):
    return engine.timeseries()


def test_isosurface_facade(level):
    mesh = pp.isosurface(level, "pressure", -0.3)
    assert isinstance(mesh, TriangleMesh)
    assert mesh.n_triangles > 0


def test_isosurface_with_attributes(level):
    mesh = pp.isosurface(level, "pressure", -0.3, attributes=["pressure"])
    np.testing.assert_allclose(mesh.attributes["pressure"], -0.3, atol=1e-9)


def test_vortex_regions_facade(level):
    mesh = pp.vortex_regions(level, threshold=-0.5)
    assert mesh.n_triangles > 0


def test_q_vortex_regions_facade(level):
    mesh = pp.q_vortex_regions(level, threshold=0.05)
    assert mesh.n_triangles > 0


def test_isosurface_series_facade(series):
    meshes = pp.isosurface_series(series, "pressure", -0.3, time_indices=[0, 2])
    assert len(meshes) == 2
    assert all(isinstance(m, TriangleMesh) for m in meshes)
    # The unsteady flow changes the surface between levels.
    assert meshes[0].n_triangles != meshes[1].n_triangles or (
        meshes[0].area() != meshes[1].area()
    )


def test_cut_plane_facade(level):
    mesh = pp.cut_plane(level, (0, 0, 1), offset=1.0, attributes=["pressure"])
    assert mesh.n_triangles > 0
    np.testing.assert_allclose(mesh.vertices[:, 2], 1.0, atol=1e-9)
    assert "pressure" in mesh.attributes


def test_cut_plane_contours_facade(level):
    lo, hi = level.scalar_range("pressure")
    lines = pp.cut_plane_contours(
        level, (0, 0, 1), 0.8, "pressure", [lo + 0.5 * (hi - lo)]
    )
    assert isinstance(lines, PolylineSet)
    assert not lines.is_empty()
    np.testing.assert_allclose(lines.vertices[:, 2], 0.8, atol=1e-9)


def test_add_lambda2_field(level):
    out = pp.add_lambda2_field(level)
    assert out is level
    for block in level:
        assert block.has_field("lambda2")


def test_pathlines_facade(series):
    paths = pp.pathlines(
        series, [[0.2, 0.1, 0.8], [-0.3, 0.2, 1.0]], max_steps=40, rtol=1e-2
    )
    assert len(paths) == 2
    assert all(p.n_points >= 1 for p in paths)


def test_pathlines_as_polylines(series):
    lines = pp.pathlines(
        series, [[0.2, 0.1, 0.8]], max_steps=40, rtol=1e-2, as_polylines=True
    )
    assert isinstance(lines, PolylineSet)
    assert lines.n_lines == 1
    assert "speed" in lines.attributes


def test_streamlines_facade(level):
    lines = pp.streamlines(
        level, [[0.2, 0.1, 0.8]], duration=0.2, max_steps=40, rtol=1e-2,
        as_polylines=True,
    )
    assert lines.n_lines == 1


def test_streakline_facade(series):
    sk = pp.streakline(
        series, [0.2, 0.1, 0.8], n_particles=4, max_steps=40, rtol=1e-2
    )
    assert sk.n_released == 4


def test_facade_matches_framework_geometry(level):
    """Library path and framework path produce identical geometry."""
    from repro import ViracochaSession
    from repro.bench import paper_cluster, paper_costs

    direct = pp.isosurface(level, "pressure", -0.3)
    session = ViracochaSession(
        build_engine(base_resolution=5, n_timesteps=4),
        cluster_config=paper_cluster(2),
        costs=paper_costs(),
    )
    result = session.run(
        "iso-dataman",
        params={"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)},
    )
    assert result.geometry.n_triangles == direct.n_triangles


def test_facade_matches_framework_pathlines(engine, series):
    """The facade traces with the framework's tracer: same bytes."""
    from repro import ViracochaSession
    from repro.bench import paper_cluster, paper_costs

    seeds = [[0.2, 0.1, 0.8], [-0.3, 0.2, 1.0], [0.1, -0.2, 0.6]]
    tracer_kwargs = dict(rtol=1e-3, max_steps=400, local_cache_blocks=8)
    direct = pp.pathlines(series, seeds, **tracer_kwargs)
    session = ViracochaSession(
        engine, cluster_config=paper_cluster(1), costs=paper_costs()
    )
    result = session.run(
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


def test_interaction_report(level):
    from repro import ViracochaSession
    from repro.bench import paper_cluster, paper_costs

    session = ViracochaSession(
        build_engine(base_resolution=5, n_timesteps=4),
        cluster_config=paper_cluster(2),
        costs=paper_costs(),
    )
    result = session.run(
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
