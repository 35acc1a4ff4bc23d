"""The DES mirror of dynamic scheduling (``schedule="dynamic"``).

Simulated time is deterministic, so these are exact assertions: the
dynamic drain must reproduce the canonical group-1 merge bytes, record
its steal/idle bookkeeping, stream every task's packets, and leave the
default static path — and therefore every golden fingerprint and chaos
pin — completely untouched.  Dynamic runs under fault recovery are
covered in ``tests/faults``.
"""

import pytest

from repro import ViracochaSession
from repro.bench import paper_cluster, paper_costs
from repro.synth import build_propfan
from tests.conftest import cached_engine

ISO = {"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 2)}


def _session(n_workers=4):
    return ViracochaSession(
        cached_engine(4, 2),
        n_workers=n_workers,
        cluster_config=paper_cluster(n_workers),
        costs=paper_costs(),
    )


def _bytes(geometry) -> bytes:
    return geometry.vertices.tobytes() + geometry.triangles.tobytes()


@pytest.mark.parametrize("schedule", ["dynamic"])
def test_dynamic_matches_group1_bytes(schedule):
    reference = _session().run("iso-dataman", params=dict(ISO), group_size=1)
    got = _session().run(
        "iso-dataman",
        params=dict(ISO, schedule=schedule, steal_batch=1),
        group_size=4,
    )
    assert got.geometry.n_triangles == reference.geometry.n_triangles
    assert _bytes(got.geometry) == _bytes(reference.geometry)


def test_dynamic_records_steals_and_idle():
    session = _session()
    result = session.run(
        "iso-dataman",
        params=dict(ISO, schedule="dynamic", steal_batch=1),
        group_size=4,
    )
    record = session.scheduler.history[-1]
    assert record.steals >= 0
    assert record.idle_seconds >= 0.0
    # All four workers drained tasks, and every task made the merge.
    assert len({s.node for s in result.spans if s.kind == "worker"}) == 4
    assert record.planned_units > 0 and not record.failed_shares
    assert result.geometry.n_triangles > 0


def test_static_records_keep_default_accounting():
    """Static deals exactly one unit per worker, so it never steals;
    its idle time is measured like dynamic's — the tail each worker
    waits for the slowest one, read off the worker spans."""
    session = _session()
    result = session.run("iso-dataman", params=dict(ISO), group_size=4)
    record = session.scheduler.history[-1]
    assert record.steals == 0
    ends = [s.t_end for s in result.spans if s.kind == "worker"]
    assert len(ends) == 4
    assert record.idle_seconds == sum(max(ends) - t for t in ends)
    assert record.idle_seconds > 0.0


def test_dynamic_steal_batch_param_bounds():
    """Any positive steal_batch drains all tasks exactly once."""
    reference = _session().run("iso-dataman", params=dict(ISO), group_size=1)
    for batch in (1, 7, 10_000):
        got = _session().run(
            "iso-dataman",
            params=dict(ISO, schedule="dynamic", steal_batch=batch),
            group_size=4,
        )
        assert _bytes(got.geometry) == _bytes(reference.geometry)


def test_dynamic_beats_static_on_skewed_propfan():
    """Warm re-extraction at -2.45 on propfan concentrates the active
    cells in a few of the static split's shares; stealing one task at a
    time must beat that by >= 1.3x in simulated seconds (measured
    1.35x), actually steal, and keep the group-1 merge bytes."""
    base = {"scalar": "pressure", "time_range": (0, 2)}

    def session():
        return ViracochaSession(
            build_propfan(base_resolution=4, n_timesteps=2),
            n_workers=4,
            cluster_config=paper_cluster(4),
            costs=paper_costs(),
        )

    reference = session().run(
        "iso-dataman", params=dict(base, isovalue=-2.45), group_size=1
    )
    warm, steals = {}, {}
    for schedule in ("static", "dynamic"):
        params = dict(base)
        if schedule == "dynamic":
            params.update(schedule="dynamic", steal_batch=1)
        sess = session()
        sess.run("iso-dataman", params=dict(params, isovalue=-3.0), group_size=4)
        warm[schedule] = sess.run(
            "iso-dataman", params=dict(params, isovalue=-2.45), group_size=4
        )
        steals[schedule] = sess.scheduler.history[-1].steals
    assert warm["static"].total_runtime / warm["dynamic"].total_runtime >= 1.3
    assert steals["dynamic"] > 0
    assert _bytes(warm["dynamic"].geometry) == _bytes(reference.geometry)


STREAMED = {
    "iso-viewer": {
        "isovalue": 0.0,
        "scalar": "pressure",
        "time_range": (0, 1),
        "viewpoint": (0.0, 0.0, 4.0),
    },
    "cutplane-streamed": {
        "normal": (0.0, 0.0, 1.0), "offset": 0.8, "time_range": (0, 1),
    },
    "vortex-streamed": {"time_range": (0, 2)},
}


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("command", sorted(STREAMED))
def test_dynamic_streaming_command_completes(command, schedule):
    """Streaming commands deliver every unit's geometry under either
    schedule: a worker that drains several tasks restarts its packet
    sequence per task, and the client must not drop those as repeats."""
    params = dict(STREAMED[command])
    reference = _session().run(command, params=dict(params), group_size=1)
    if schedule == "dynamic":
        params.update(schedule="dynamic", steal_batch=1)
    session = _session()
    result = session.run(command, params=params, group_size=4)
    assert result.geometry.n_triangles == reference.geometry.n_triangles > 0
    # The client kept every packet a worker streamed, plus the final one.
    streamed = [
        s for s in result.spans if s.kind == "stream-packet" and "sequence" in s.attrs
    ]
    assert result.n_packets == len(streamed) + 1
