"""Shared fixtures: cached synthetic engines and paper-shaped sessions.

Building a synthetic engine dataset is the slowest part of most test
setups, and the dataset is immutable once built (sessions wrap it in a
read-only :class:`~repro.dms.source.SyntheticSource`), so
:func:`cached_engine` memoizes one instance per shape for the whole
test run.  :func:`paper_session` is the canonical way tests build a
session: the paper-calibrated cluster and cost model, a cached engine,
and any :class:`~repro.core.session.ViracochaSession` keyword passed
through.

Both helpers are importable (``from tests.conftest import ...``) for
module-level use and wrapped as fixtures for injection.

The run owns what it makes: once every test is done, no result arena a
worker pool created and no private store directory
(``repro-store-<pid>-*``) of this process or a subprocess it started
may still exist (:func:`_the_run_leaves_nothing_behind`).
"""

import gc
import os
import subprocess
import tempfile
from pathlib import Path

import pytest

from repro import ViracochaSession, build_engine
from repro.bench import paper_cluster, paper_costs
from repro.core.commands import Command
from repro.parallel import ProcessWorkerPool

_ENGINE_CACHE: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _the_run_leaves_nothing_behind():
    """Fail the run if a result arena some :class:`ProcessWorkerPool`
    created, or a private store directory named with the pid of this
    process or of a subprocess it started, outlives the tests.  Only
    what this run made is looked at, never the machine-wide listing."""
    arenas: set[str] = set()
    pids = {os.getpid()}
    offer, popen = ProcessWorkerPool._offer_arenas, subprocess.Popen.__init__

    def offer_arenas(self, n_slots):
        names = offer(self, n_slots)
        arenas.update(name for name in names if name)
        return names

    def popen_init(self, *args, **kwargs):
        popen(self, *args, **kwargs)
        pids.add(self.pid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessWorkerPool, "_offer_arenas", offer_arenas)
        patch.setattr(subprocess.Popen, "__init__", popen_init)
        yield
    gc.collect()  # stores only garbage now remove their directories
    left = sorted(
        f"/dev/shm/{name}" for name in arenas if os.path.exists(f"/dev/shm/{name}")
    ) + sorted(
        str(path) for pid in pids
        for path in Path(tempfile.gettempdir()).glob(f"repro-store-{pid}-*")
    )
    assert not left, f"the test run left behind: {left}"


class FailingCommand(Command):
    """Valid params, then a failure inside the run: what a command that
    raises on a worker looks like to the session and the served path."""

    name = "fail-in-run"

    def plan(self, ctx, group_size):
        return [[] for _ in range(group_size)]

    def run(self, ctx, assignment, worker_index):
        raise RuntimeError("fail-in-run raised inside its run")
        yield  # a generator: the worker's first step raises


def cached_engine(base_resolution: int = 4, n_timesteps: int = 2):
    """Memoized :func:`build_engine` — datasets are immutable, share them."""
    key = (base_resolution, n_timesteps)
    if key not in _ENGINE_CACHE:
        _ENGINE_CACHE[key] = build_engine(
            base_resolution=base_resolution, n_timesteps=n_timesteps
        )
    return _ENGINE_CACHE[key]


def paper_session(
    dataset=None,
    n_workers: int = 2,
    *,
    base_resolution: int = 4,
    n_timesteps: int = 2,
    **kwargs,
) -> ViracochaSession:
    """A session on the paper-calibrated cluster and cost model."""
    if dataset is None:
        dataset = cached_engine(base_resolution, n_timesteps)
    kwargs.setdefault("cluster_config", paper_cluster(n_workers))
    kwargs.setdefault("costs", paper_costs())
    return ViracochaSession(dataset, **kwargs)


@pytest.fixture(scope="session")
def engine_factory():
    """The memoizing engine builder, as a fixture."""
    return cached_engine


@pytest.fixture(scope="session")
def small_engine():
    """The ubiquitous 4-resolution, 2-timestep engine dataset."""
    return cached_engine(4, 2)


@pytest.fixture()
def make_session():
    """Session factory fixture; see :func:`paper_session` for arguments."""
    return paper_session


def serve_server(n_workers: int = 2, slots: int = 1, slos=None,
                 **session_kwargs):
    """A :class:`~repro.serve.server.TenantServer` over a paper session.

    Returns ``(session, server)``.  The dataset comes from
    :func:`cached_engine`, so every serve test shares the one warmed
    engine build instead of re-synthesizing it per test.
    """
    from repro.serve import SessionBackend, TenantServer, serve_slos

    session = paper_session(n_workers=n_workers, **session_kwargs)
    backend = SessionBackend(session, slots=slots)
    server = TenantServer(
        backend, slos=slos if slos is not None else serve_slos()
    )
    return session, server


@pytest.fixture()
def make_serve_server():
    """Factory fixture for session-backed tenant servers."""
    return serve_server
