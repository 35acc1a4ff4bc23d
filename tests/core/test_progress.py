"""Tests for §9 progress feedback (the VR progress bar)."""

import pytest

from repro.core import ProgressUpdate
from tests.conftest import paper_session

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}


@pytest.fixture()
def session():
    return paper_session(n_timesteps=1)


def test_progress_update_fraction():
    u = ProgressUpdate(1, 0, completed=3, total=12)
    assert u.fraction == pytest.approx(0.25)
    assert ProgressUpdate(1, 0, 0, 0).fraction == 1.0
    assert u.nbytes == u.wire_bytes


def test_no_progress_by_default(session):
    session.run("iso-dataman", params=ISO)
    assert session.client.progress == {}


def test_progress_packets_arrive_during_command(session):
    result = session.run("iso-dataman", params={**ISO, "progress": True})
    times = next(iter(session.client.progress_times.values()))
    # 23 blocks over 2 workers: one update per load.
    assert len(times) == 23
    # Updates arrive spread across the run, not bunched at the end: the
    # first one lands in the first half of the update window.
    assert times == sorted(times)
    span = times[-1] - times[0]
    assert span > 0
    assert times[1] - times[0] < 0.5 * span


def test_progress_reaches_one(session):
    session.run("iso-dataman", params={**ISO, "progress": True})
    (request_id,) = session.client.progress.keys()
    per_worker = session.client.progress[request_id]
    assert set(per_worker) == {0, 1}
    assert all(v == pytest.approx(1.0) for v in per_worker.values())


def test_progress_of_unknown_request_is_zero(session):
    session.run("iso-dataman", params={**ISO, "progress": True})
    assert 424242 not in session.client.progress


def test_progress_monotone_midway(session):
    """Stop the simulation midway: progress is partial and in (0, 1)."""
    from repro.core.messages import next_request_id

    request_id = next_request_id()
    session.client.reset()
    done = session.client.expect(request_id)
    proc = session.env.process(
        session.scheduler.run_command(
            "iso-dataman",
            {**ISO, "progress": True},
            2,
            session.client.mailbox,
            request_id,
        )
    )
    # Advance until at least one update arrived, then inspect.
    while not session.client.progress.get(request_id):
        session.env.step()
    midway = dict(session.client.progress[request_id])
    assert all(0.0 < v <= 1.0 for v in midway.values())
    session.env.run(until=done)
    final = session.client.progress[request_id]
    assert all(v == pytest.approx(1.0) for v in final.values())
    assert all(final[w] >= v for w, v in midway.items())


def test_progress_adds_only_small_overhead(session):
    plain = session.run("iso-dataman", params=ISO)
    with_progress = session.run("iso-dataman", params={**ISO, "progress": True})
    assert with_progress.total_runtime <= plain.total_runtime * 1.25
