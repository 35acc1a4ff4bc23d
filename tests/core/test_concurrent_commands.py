"""Tests for work-group formation and concurrent command submission."""

import pytest

from tests.conftest import paper_session

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}
VORTEX = {"threshold": -0.5, "time_range": (0, 1)}


@pytest.fixture()
def session():
    return paper_session(n_workers=4)


def test_concurrent_disjoint_groups_overlap_in_time(session):
    """Two 2-worker commands on a 4-worker cluster run side by side."""
    results = session.run_concurrent(
        [
            {"command": "iso-dataman", "params": ISO, "group_size": 2},
            {"command": "vortex-dataman", "params": VORTEX, "group_size": 2},
        ]
    )
    assert len(results) == 2
    iso, vortex = results
    assert iso.geometry.n_triangles > 0
    assert vortex.geometry.n_triangles >= 0
    # Concurrent: the second command must not wait for the first; its
    # completion time is far less than the sum of both serial runtimes.
    serial = paper_session(n_workers=4)
    t_iso = serial.run("iso-dataman", params=ISO, group_size=2).total_runtime
    t_vortex = serial.run("vortex-dataman", params=VORTEX, group_size=2).total_runtime
    assert max(r.total_runtime for r in results) < 0.95 * (t_iso + t_vortex)


def test_concurrent_oversubscribed_commands_queue(session):
    """Two full-width commands must serialize on the worker pool."""
    results = session.run_concurrent(
        [
            {"command": "vortex-dataman", "params": VORTEX, "group_size": 4},
            {"command": "vortex-dataman", "params": VORTEX, "group_size": 4},
        ]
    )
    first, second = results
    # The second command's completion includes waiting for the first
    # command's work group to dissolve.
    assert second.total_runtime > first.total_runtime * 1.5


def test_concurrent_results_match_serial_geometry(session):
    results = session.run_concurrent(
        [
            {"command": "iso-dataman", "params": ISO, "group_size": 2},
            {"command": "iso-dataman", "params": ISO, "group_size": 2},
        ]
    )
    assert results[0].geometry.n_triangles == results[1].geometry.n_triangles
    serial = session.run("iso-dataman", params=ISO)
    assert serial.geometry.n_triangles == results[0].geometry.n_triangles


def test_concurrent_empty_list(session):
    assert session.run_concurrent([]) == []


def test_sequential_run_still_works_after_concurrent(session):
    session.run_concurrent(
        [{"command": "iso-dataman", "params": ISO, "group_size": 2}]
    )
    result = session.run("iso-dataman", params=ISO)
    assert result.geometry.n_triangles > 0


def test_concurrent_streamed_packets_are_separated(session):
    """Packets of interleaved streamed commands route to the right result."""
    viewer_params = {**ISO, "viewpoint": (0, 0, -5), "max_triangles": 100}
    results = session.run_concurrent(
        [
            {"command": "iso-viewer", "params": viewer_params, "group_size": 2},
            {
                "command": "vortex-streamed",
                "params": {**VORTEX, "batch_cells": 8},
                "group_size": 2,
            },
        ]
    )
    viewer, vortex = results
    assert viewer.n_packets > 1
    # Geometry totals match the respective serial runs.
    serial_viewer = session.run("iso-viewer", params=viewer_params, group_size=2)
    assert viewer.geometry.n_triangles == serial_viewer.geometry.n_triangles
