"""The served app ``repro serve`` boots: the HTTP/REST facade over a
real :class:`~repro.core.session.ViracochaSession`."""

from __future__ import annotations


def build_serve_app(data: str = "engine", workers: int = 4,
                    slots: int = 1):
    """A :class:`~repro.serve.rest.ServeApp` over a real session."""
    from ..bench.calibration import paper_session
    from .rest import ServeApp
    from .server import SessionBackend, TenantServer, serve_slos

    backend = SessionBackend(paper_session(data, workers), slots=slots)
    return ServeApp(TenantServer(backend, slos=serve_slos()))
