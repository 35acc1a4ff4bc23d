"""Tests for the span event log through the full stack."""

import pytest

from repro import ViracochaSession, build_engine
from repro.bench import paper_cluster, paper_costs

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}


@pytest.fixture()
def traced_session():
    return ViracochaSession(
        build_engine(base_resolution=4, n_timesteps=2),
        cluster_config=paper_cluster(2),
        costs=paper_costs(),
    )


def _command(tracer):
    (command,) = [s for s in tracer.spans if s.kind == "command"]
    return command


def test_observe_false_gives_no_spans():
    session = ViracochaSession(
        build_engine(base_resolution=4, n_timesteps=1),
        cluster_config=paper_cluster(1),
        costs=paper_costs(),
        observe=False,
    )
    # Every layer holds the session's tracer, disabled, never None.
    scheduler = session.scheduler
    layers = [scheduler, *scheduler.workers, *(w.proxy for w in scheduler.workers)]
    assert all(layer.tracer is session.tracer for layer in layers)
    assert not session.tracer.enabled
    result = session.run("iso-dataman", params=ISO)
    assert len(session.tracer) == 0
    assert result.spans == []
    assert result.geometry.n_triangles > 0


def test_trace_records_command_lifecycle(traced_session):
    traced_session.run("iso-dataman", params=ISO)
    command = _command(traced_session.tracer)
    assert command.finished
    assert command.t_start <= command.t_end
    assert command.name == "iso-dataman"
    assert command.node == 0
    assert command.attrs["workers"] == [0, 1]


def test_trace_records_loads_with_strategy(traced_session):
    traced_session.run("iso-dataman", params=ISO)
    tracer = traced_session.tracer
    loads = [s for s in tracer.spans if s.kind == "dms-strategy-load"]
    assert len(loads) == 23  # one cold load per Engine block
    assert all(s.attrs["strategy"] in {"fileserver", "node-transfer", "collective"}
               for s in loads)
    assert all(s.attrs["nbytes"] > 0 for s in loads)
    # Loads happen inside the command window.
    command = _command(tracer)
    assert all(command.t_start <= s.t_end <= command.t_end for s in loads)


def test_trace_records_streamed_packets(traced_session):
    traced_session.run(
        "iso-viewer",
        params={**ISO, "viewpoint": (0, 0, -5), "max_triangles": 200},
    )
    tracer = traced_session.tracer
    streams = [
        s for s in tracer.spans if s.kind == "stream-packet" and "sequence" in s.attrs
    ]
    assert streams
    # Streamed packets arrive before the command ends (that is the point).
    assert streams[0].t_end < _command(tracer).t_end


def test_trace_demand_vs_prefetch_loads(traced_session):
    traced_session.run("iso-dataman", params=ISO)
    loads = [s for s in traced_session.tracer.spans if s.kind == "dms-strategy-load"]
    demand = [s for s in loads if s.attrs["demand"]]
    prefetched = [s for s in loads if not s.attrs["demand"]]
    assert demand
    assert prefetched  # OBL prefetching ran during the cold pass


def test_trace_accumulates_across_runs(traced_session):
    tracer = traced_session.tracer
    traced_session.run("iso-dataman", params=ISO)
    mark = tracer.mark()
    n1 = len(tracer)
    traced_session.run("iso-dataman", params=ISO)  # warm: no new loads
    warm = tracer.since(mark)
    assert len(tracer) == n1 + len(warm) > n1
    assert not [s for s in warm if s.kind == "dms-strategy-load"]
    loads = [s for s in tracer.spans if s.kind == "dms-strategy-load"]
    assert len(loads) == 23  # the cold pass's
    tracer.clear()
    assert len(tracer) == 0
