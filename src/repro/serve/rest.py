"""A thin HTTP/REST facade over :class:`~repro.serve.server.TenantServer`.

Deliberately framework-free: the container ships no web framework, so
this rides the stdlib ``http.server``.  The facade is a *front end to
the simulator* — each submitted command advances the DES until that
command completes, under one lock (the kernel is single-threaded), and
the response carries the simulated timings.  That makes it an honest
remote API for everything the CLI can do: register tenants, submit
commands, read per-tenant SLO rollups and Prometheus metrics.

Routes (JSON in/out unless noted)::

    GET  /healthz       liveness + basic counters
    GET  /v1/tenants    every tenant's config + live accounting
    POST /v1/tenants    register a tenant
    POST /v1/commands   submit one command (400 on params its command's
                        declaration refuses, 429 on admission reject)
    GET  /v1/slo        per-tenant SLO rollups
    GET  /v1/metrics    Prometheus text exposition
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .server import RequestState, ServeHandle, TenantServer
from .tenancy import LANE_NAMES

__all__ = ["ServeApp", "make_http_server"]


class _ApiError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _object(body: Any) -> dict[str, Any]:
    """A POST body as a JSON object; absent means empty."""
    if body is None:
        return {}
    if not isinstance(body, dict):
        raise _ApiError(400, "request body must be a JSON object")
    return body


class ServeApp:
    """Transport-independent request handling (unit-testable directly).

    Every public ``handle_*`` method returns ``(status, payload)``;
    :class:`_Handler` is just plumbing around them.  All state mutation
    happens under ``self.lock`` because the DES kernel underneath is
    strictly single-threaded.
    """

    def __init__(self, server: TenantServer):
        self.server = server
        self.lock = threading.Lock()

    # ------------------------------------------------------------ routes
    def handle(self, method: str, path: str,
               body: dict[str, Any] | None) -> tuple[int, Any]:
        try:
            if method == "GET" and path == "/healthz":
                return self.handle_health()
            if path == "/v1/tenants":
                if method == "GET":
                    return self.handle_list_tenants()
                if method == "POST":
                    return self.handle_register(_object(body))
            if method == "POST" and path == "/v1/commands":
                return self.handle_submit(_object(body))
            if method == "GET" and path == "/v1/slo":
                return self.handle_slo()
            if method == "GET" and path == "/v1/metrics":
                return self.handle_metrics()
            raise _ApiError(404, f"no route for {method} {path}")
        except _ApiError as exc:
            return exc.status, {"error": exc.message}
        except (KeyError, TypeError, ValueError) as exc:
            # A KeyError's str() is its message in quotes.
            keyed = isinstance(exc, KeyError) and exc.args
            return 400, {"error": str(exc.args[0] if keyed else exc)}

    def handle_health(self) -> tuple[int, Any]:
        with self.lock:
            srv = self.server
            return 200, {
                "status": "ok",
                "tenants": len(srv.tenants),
                "queue_depth": len(srv.queue),
                "submitted": len(srv.handles),
                "sim_now": srv.env.now,
            }

    def handle_list_tenants(self) -> tuple[int, Any]:
        with self.lock:
            return 200, {
                "tenants": [
                    state.snapshot()
                    for _, state in sorted(self.server.tenants.items())
                ]
            }

    def handle_register(self, body: dict[str, Any]) -> tuple[int, Any]:
        name = body.get("name")
        if not name or not isinstance(name, str):
            raise _ApiError(400, "tenant 'name' (string) is required")
        kwargs: dict[str, Any] = {}
        if "weight" in body:
            kwargs["weight"] = int(body["weight"])
        if "lane" in body:
            lane = body["lane"]
            if isinstance(lane, str):
                if lane not in LANE_NAMES:
                    raise _ApiError(
                        400, f"lane must be one of {list(LANE_NAMES)}"
                    )
                lane = LANE_NAMES.index(lane)
            kwargs["lane"] = int(lane)
        if "max_in_flight" in body:
            kwargs["max_in_flight"] = int(body["max_in_flight"])
        if body.get("byte_budget") is not None:
            kwargs["byte_budget"] = int(body["byte_budget"])
        with self.lock:
            if name in self.server.tenants:
                raise _ApiError(409, f"tenant {name!r} already registered")
            state = self.server.register(name, **kwargs)
            return 201, state.snapshot()

    def handle_submit(self, body: dict[str, Any]) -> tuple[int, Any]:
        tenant = body.get("tenant")
        command = body.get("command")
        if not tenant or not command:
            raise _ApiError(400, "'tenant' and 'command' are required")
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise _ApiError(400, "'params' must be an object")
        service = None
        if body.get("service_s") is not None:
            # Modeled-backend deployments take the service time from the
            # request; session-backed ones ignore it.
            from .server import ServiceProfile

            fb = body.get("first_byte_s")
            service = ServiceProfile(
                total_s=float(body["service_s"]),
                first_byte_s=None if fb is None else float(fb),
            )
        with self.lock:
            srv = self.server
            if tenant not in srv.tenants:
                raise _ApiError(404, f"unknown tenant {tenant!r}")
            handle = srv.submit(
                tenant, command, params,
                cost_bytes=int(body.get("cost_bytes", 0)),
                service=service,
            )
            if handle.state == "rejected":
                return 429, self._handle_payload(handle)
            # Single-threaded DES: drive the simulation until this
            # command reaches a terminal state.
            srv.env.run(until=handle.done)
            status = 200 if handle.state == "done" else 500
            payload = self._handle_payload(handle)
            # The response carries timings, not geometry: release the
            # run record (and its merged mesh) once it is answered.
            handle.outcome = None
            return status, payload

    def handle_slo(self) -> tuple[int, Any]:
        with self.lock:
            tracker = self.server.tracker
            rollups = [
                {
                    "slo": st.slo.name,
                    "tenant": st.key,
                    "total": st.total,
                    "attainment": st.attainment,
                    "target": st.slo.target,
                    "met": st.met,
                    "p50_s": st.p50,
                    "p99_s": st.p99,
                    "burn_rate": st.burn_rate,
                }
                for st in tracker.status("tenant")
            ]
            return 200, {
                "observations": tracker.observations,
                "all_met": tracker.all_met(),
                "rollups": rollups,
            }

    def handle_metrics(self) -> tuple[int, Any]:
        from ..obs import MetricsRegistry

        with self.lock:
            registry = MetricsRegistry()
            self.server.publish_metrics(registry)
            # str payload → served as text/plain by the handler.
            return 200, registry.render_prometheus()

    @staticmethod
    def _handle_payload(handle: ServeHandle) -> dict[str, Any]:
        payload = {
            "request_id": handle.request_id,
            "tenant": handle.tenant,
            "command": handle.command,
            "state": handle.state,
            "reject_reason": handle.reject_reason,
            "queue_wait_s": handle.queue_wait_s,
            "latency_s": handle.latency_s,
            "runtime_s": handle.runtime_s,
            "degraded": handle.degraded,
        }
        if handle.state == RequestState.FAILED:
            payload["error"] = handle.failure
        return payload


class _Handler(BaseHTTPRequestHandler):
    """stdlib plumbing; all logic lives in :class:`ServeApp`."""

    app: ServeApp  #: set by :func:`make_http_server`

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        body = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            try:
                body = json.loads(self.rfile.read(length))
            except json.JSONDecodeError:
                self._respond(400, {"error": "request body is not valid JSON"})
                return
        status, payload = self.app.handle(method, self.path, body)
        self._respond(status, payload)

    def _respond(self, status: int, payload: Any) -> None:
        if isinstance(payload, str):
            data = payload.encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload, sort_keys=True).encode()
            ctype = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; the CLI prints its own banner


def make_http_server(app: ServeApp, host: str = "127.0.0.1",
                     port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``app``."""
    handler = type("BoundHandler", (_Handler,), {"app": app})
    return ThreadingHTTPServer((host, port), handler)
