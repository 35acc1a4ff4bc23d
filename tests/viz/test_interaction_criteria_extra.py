"""Interaction-criteria variants and report edge cases."""

import pytest

from repro import ViracochaSession, build_engine
from repro.bench import paper_cluster, paper_costs
from repro.viz.client import FrameRateModel, InteractionCriteria


def test_kreylos_criterion_is_stricter():
    bryson = InteractionCriteria(min_frame_rate_hz=10.0)
    kreylos = InteractionCriteria(min_frame_rate_hz=30.0)
    assert bryson.frame_rate_ok(20.0)
    assert not kreylos.frame_rate_ok(20.0)


def test_interaction_report_with_custom_criteria():
    session = ViracochaSession(
        build_engine(base_resolution=4, n_timesteps=1),
        cluster_config=paper_cluster(1),
        costs=paper_costs(),
    )
    result = session.run(
        "iso-dataman", params={"isovalue": -0.3, "time_range": (0, 1)}
    )
    # A hopeless renderer fails even a small surface.
    weak = FrameRateModel(triangles_per_second=100.0, fixed_frame_cost_s=0.05)
    report = result.interaction_report(renderer=weak)
    assert report["frame_rate_hz"] < 10.0
    assert report["frame_rate_ok"] is False
    # Kreylos' 30 Hz with the strong default renderer still passes.
    report30 = result.interaction_report(
        criteria=InteractionCriteria(min_frame_rate_hz=30.0)
    )
    assert report30["frame_rate_ok"] is True


def test_report_on_non_mesh_geometry():
    from repro.core.session import CommandResult

    result = CommandResult(
        command="pathlines-dataman",
        params={},
        group_size=1,
        total_runtime=1.0,
        latency=0.05,
        n_packets=1,
        packet_times=[1.0],
        geometry=[],  # pathline payloads are not meshes
        payloads=[],
        breakdown={},
        dms={},
    )
    report = result.interaction_report()
    assert report["frame_rate_ok"] is True  # empty scene renders fast
    assert report["response_time_ok"] is True  # 50 ms < 100 ms
