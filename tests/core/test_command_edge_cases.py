"""Edge-case coverage for the command library."""

import pytest

from tests.conftest import cached_engine, paper_session


@pytest.fixture(scope="module")
def engine():
    return cached_engine(4, 2)


def make_session(engine, nw=2):
    return paper_session(engine, nw)


def test_more_workers_than_blocks(engine):
    """Workers with empty shares must not break group collection."""
    session = paper_session(engine, 16)
    result = session.run(
        "iso-dataman",
        params={"isovalue": -0.3, "time_range": (0, 1)},
        group_size=16,
    )
    assert result.geometry.n_triangles > 0


def test_isosurface_out_of_range_value_yields_empty_result(engine):
    session = make_session(engine)
    result = session.run(
        "iso-dataman", params={"isovalue": 99.0, "time_range": (0, 1)}
    )
    assert result.geometry.is_empty()
    assert result.total_runtime > 0  # scan work still happened


def test_streamed_command_with_no_features_sends_only_final(engine):
    session = make_session(engine)
    result = session.run(
        "iso-viewer",
        params={
            "isovalue": 99.0,
            "time_range": (0, 1),
            "viewpoint": (0, 0, -5),
        },
    )
    assert result.n_packets == 1  # just the completion marker
    assert result.geometry.is_empty()
    # With no data packet, latency degenerates to the total runtime.
    assert result.latency == pytest.approx(result.total_runtime)


def test_vortex_threshold_below_field_range_empty(engine):
    session = make_session(engine)
    result = session.run(
        "vortex-dataman", params={"threshold": -1e9, "time_range": (0, 1)}
    )
    assert result.geometry.is_empty()


def test_progressive_on_uncoarsenable_blocks_single_level(engine):
    """base_resolution=4 blocks can barely coarsen; the command still
    streams at least one level per feature-bearing block."""
    session = make_session(engine)
    result = session.run(
        "iso-progressive",
        params={"isovalue": -0.3, "time_range": (0, 1), "max_levels": 4},
    )
    assert result.geometry.n_triangles > 0


def test_progressive_total_triangles_include_all_levels(engine):
    session = make_session(engine)
    batch = session.run(
        "iso-dataman", params={"isovalue": -0.3, "time_range": (0, 1)}
    )
    progressive = session.run(
        "iso-progressive",
        params={"isovalue": -0.3, "time_range": (0, 1), "max_levels": 3},
    )
    # The finest level alone reproduces the batch surface; coarser
    # levels add approximation triangles on top.
    assert progressive.geometry.n_triangles >= batch.geometry.n_triangles


def test_cutplane_streamed_matches_batch(engine):
    session = make_session(engine)
    params = {"normal": (0, 0, 1.0), "offset": 1.0, "time_range": (0, 1)}
    batch = session.run("cutplane", params=params)
    streamed = session.run("cutplane-streamed", params=params)
    assert streamed.geometry.n_triangles == batch.geometry.n_triangles
    assert streamed.latency < batch.latency


def test_cutplane_outside_domain_empty(engine):
    session = make_session(engine)
    result = session.run(
        "cutplane",
        params={"normal": (0, 0, 1.0), "offset": 50.0, "time_range": (0, 1)},
    )
    assert result.geometry.is_empty()


def test_multi_timestep_command_covers_levels(engine):
    session = make_session(engine)
    one = session.run("iso-dataman", params={"isovalue": -0.3, "time_range": (0, 1)})
    both = session.run("iso-dataman", params={"isovalue": -0.3, "time_range": (0, 2)})
    assert both.geometry.n_triangles > one.geometry.n_triangles
    assert both.dms["requests"] == 2 * one.dms["requests"]


def test_time_range_offset_slice(engine):
    """A command over (1, 2) touches only level-1 items."""
    session = make_session(engine)
    # Spy on every proxy's request accounting: the ids requested.
    log = []
    for worker in session.scheduler.workers:
        record = worker.proxy.stats.record_request
        worker.proxy.stats.record_request = (
            lambda key, where, record=record: log.append(key) or record(key, where)
        )
    result = session.run(
        "iso-dataman", params={"isovalue": -0.3, "time_range": (1, 2)}
    )
    assert result.geometry.n_triangles > 0
    assert log
    names = [session.scheduler.workers[0].proxy.resolver.reverse(i) for i in log]
    assert all(n.param("time") == 1 for n in names)


def test_pathline_seed_outside_domain(engine):
    session = make_session(engine)
    result = session.run(
        "pathlines-dataman",
        params={"seeds": [[99.0, 99.0, 99.0]], "time_range": (0, 2), "max_steps": 10},
    )
    (paths,) = result.payloads
    assert paths[0].termination == "left_domain"
    assert paths[0].n_points == 1
