"""The three ways a command enters the DES agree on everything it
measures: ``session.run(cmd)``, ``session.run_concurrent([cmd])[0]`` and
a served :class:`~repro.serve.server.SessionBackend` submit all go
through ``ViracochaSession.submit``, so on twin sessions they must give
the same geometry bytes, packet times, latency, TTFA, runtime, worker
breakdown and DMS statistics.  Only the session span differs: ``run``
and ``run_concurrent`` each open their own shape, and the backend none.
"""

import pickle

import pytest

from repro.io.geometry_io import geometry_to_bytes
from repro.viz import PolylineSet, TriangleMesh
from repro.serve.server import ServeHandle, SessionBackend
from tests.conftest import paper_session

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}
COMMANDS = {
    "iso-dataman": ISO,
    "iso-progressive": {**ISO, "max_levels": 3},
    "vortex-streamed": {"threshold": -0.5, "time_range": (0, 1), "batch_cells": 16},
    "pathlines-dataman": {
        "seeds": [[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9]],
        "time_range": (0, 2),
        "max_steps": 40,
    },
}

#: RunRecord fields a submit path could disturb (ids and the worker
#: share objects aside).
RECORD_FIELDS = (
    "command", "group_size", "t_start", "t_end", "degraded",
    "failed_shares", "planned_units", "retries", "reassignments",
    "queue_wait_s", "tenant", "idle_seconds", "steals",
)


def _bytes(payload):
    """Geometry in its wire format; anything else (pathline lists, a
    streaming command's empty merge) pickled."""
    if isinstance(payload, (TriangleMesh, PolylineSet)):
        return geometry_to_bytes(payload)
    return pickle.dumps(payload)


def _record(record):
    return (
        {name: getattr(record, name) for name in RECORD_FIELDS},
        _bytes(record.merged),
    )


def _measured(result):
    return {
        "payloads": [_bytes(p) for p in result.payloads],
        "geometry": _bytes(result.geometry),
        "packet_times": result.packet_times,
        "latency": result.latency,
        "ttfa_s": result.ttfa_s,
        "total_runtime": result.total_runtime,
        "breakdown": result.breakdown,
        "dms": result.dms,
    }


@pytest.mark.parametrize("group", [1, 2])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_run_run_concurrent_and_backend_agree(command, group):
    params = COMMANDS[command]

    single = paper_session(n_workers=2)
    run = single.run(command, params=dict(params), group_size=group)

    batch = paper_session(n_workers=2)
    (concurrent,) = batch.run_concurrent(
        [{"command": command, "params": dict(params), "group_size": group}]
    )
    assert _measured(concurrent) == _measured(run)
    assert concurrent.breakdown["compute"] > 0
    assert concurrent.dms["requests"] > 0

    served = paper_session(n_workers=2)
    backend = SessionBackend(served, group_size=group)
    handle = ServeHandle(
        request_id=1, tenant="default", command=command,
        params=dict(params), lane=0,
    )
    t0 = served.env.now
    record = served.env.run(until=served.env.process(backend.execute(handle)))
    assert served.env.now - t0 == run.total_runtime
    assert handle.t_first - t0 == run.latency

    expected = _record(single.scheduler.history[-1])
    assert _record(batch.scheduler.history[-1]) == expected
    assert _record(record) == expected
