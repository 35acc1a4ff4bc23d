"""Regression: failed single run must not starve later concurrent runs."""

import pytest

from repro import ViracochaSession, build_engine
from repro.bench import paper_cluster, paper_costs
from tests.conftest import FailingCommand

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}


def test_concurrent_after_failed_single_run():
    session = ViracochaSession(
        build_engine(base_resolution=4, n_timesteps=1),
        cluster_config=paper_cluster(2),
        costs=paper_costs(),
    )
    session.scheduler.registry.register(FailingCommand)
    with pytest.raises(RuntimeError, match="raised inside its run"):
        # Valid params: the run fails inside the simulation.
        session.run(FailingCommand.name)
    results = session.run_concurrent(
        [
            {"command": "iso-dataman", "params": ISO, "group_size": 1},
            {"command": "iso-dataman", "params": ISO, "group_size": 1},
        ]
    )
    assert len(results) == 2
    assert all(r.geometry.n_triangles > 0 for r in results)


def test_single_run_after_concurrent_runs():
    session = ViracochaSession(
        build_engine(base_resolution=4, n_timesteps=1),
        cluster_config=paper_cluster(2),
        costs=paper_costs(),
    )
    session.run_concurrent(
        [{"command": "iso-dataman", "params": ISO, "group_size": 2}]
    )
    result = session.run("iso-dataman", params=ISO)
    assert result.geometry.n_triangles > 0
    # And back again to concurrent mode.
    results = session.run_concurrent(
        [{"command": "iso-dataman", "params": ISO, "group_size": 2}]
    )
    assert results[0].geometry.n_triangles == result.geometry.n_triangles
