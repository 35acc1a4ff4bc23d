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
"""

import pytest

from repro import ViracochaSession, build_engine
from repro.bench import paper_cluster, paper_costs
from repro.core.commands import Command

_ENGINE_CACHE: dict = {}


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
