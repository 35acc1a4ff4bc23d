"""HTTP facade tests: ServeApp routing plus a live stdlib server."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.des import Environment
from repro.serve import ModeledBackend, ServiceProfile, TenantServer, serve_slos
from repro.serve.rest import ServeApp, make_http_server


@pytest.fixture()
def app():
    env = Environment()
    server = TenantServer(ModeledBackend(env, slots=2), slos=serve_slos())
    return ServeApp(server)


def submit_body(tenant="a", command="cutplane", **extra):
    return {"tenant": tenant, "command": command, **extra}


class TestServeApp:
    def test_health(self, app):
        status, payload = app.handle("GET", "/healthz", None)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["tenants"] == 0

    def test_register_and_list(self, app):
        status, payload = app.handle("POST", "/v1/tenants", {
            "name": "a", "weight": 2, "lane": "interactive",
            "max_in_flight": 3, "byte_budget": 4096,
        })
        assert status == 201
        assert payload["weight"] == 2
        assert payload["lane"] == "interactive"
        status, listing = app.handle("GET", "/v1/tenants", None)
        assert status == 200
        assert [t["name"] for t in listing["tenants"]] == ["a"]

    def test_register_conflict_and_validation(self, app):
        assert app.handle("POST", "/v1/tenants", {"name": "a"})[0] == 201
        assert app.handle("POST", "/v1/tenants", {"name": "a"})[0] == 409
        assert app.handle("POST", "/v1/tenants", {})[0] == 400
        assert app.handle("POST", "/v1/tenants", {
            "name": "b", "lane": "warp",
        })[0] == 400

    def test_submit_runs_to_completion(self, app):
        app.handle("POST", "/v1/tenants", {"name": "a"})
        status, payload = app.handle("POST", "/v1/commands", submit_body(
            service_s=0.08, first_byte_s=0.02,
        ))
        assert status == 200
        assert payload["state"] == "done"
        assert payload["latency_s"] == pytest.approx(0.02)
        assert payload["runtime_s"] == pytest.approx(0.08)

    def test_submit_without_profile_fails_loudly_not_hangs(self, app):
        app.handle("POST", "/v1/tenants", {"name": "a"})
        # ModeledBackend without a profile raises -> surfaced as 500.
        status, payload = app.handle("POST", "/v1/commands", submit_body())
        assert status == 500
        assert payload["state"] == "failed"

    def test_submit_unknown_tenant_404(self, app):
        status, _ = app.handle("POST", "/v1/commands", submit_body("ghost"))
        assert status == 404

    def test_admission_reject_is_429(self, app):
        app.handle("POST", "/v1/tenants", {"name": "a", "byte_budget": 100})
        status, payload = app.handle(
            "POST", "/v1/commands", submit_body(cost_bytes=500)
        )
        assert status == 429
        assert payload["state"] == "rejected"
        assert payload["reject_reason"] == "byte-budget"

    def test_unknown_route_404(self, app):
        assert app.handle("GET", "/nope", None)[0] == 404
        assert app.handle("POST", "/healthz", None)[0] == 404

    @pytest.mark.parametrize("path", ["/v1/commands", "/v1/tenants"])
    @pytest.mark.parametrize("body", [[1, 2], "x", 5])
    def test_non_object_body_is_400(self, app, path, body):
        status, payload = app.handle("POST", path, body)
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_slo_and_metrics_endpoints(self, app):
        app.server.register("a")
        handle = app.server.submit(
            "a", "cutplane", service=ServiceProfile(total_s=0.01)
        )
        app.server.env.run(until=handle.done)
        status, payload = app.handle("GET", "/v1/slo", None)
        assert status == 200
        assert payload["observations"] == 1
        assert any(r["tenant"] == "a" for r in payload["rollups"])
        status, text = app.handle("GET", "/v1/metrics", None)
        assert status == 200
        assert isinstance(text, str)
        assert 'viracocha_serve_completed_total{tenant="a"} 1' in text


class TestLiveHTTP:
    @pytest.fixture()
    def base_url(self, app):
        httpd = make_http_server(app, host="127.0.0.1", port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address
        yield f"http://{host}:{port}"
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)

    @staticmethod
    def request(url, body=None, method=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read().decode()

    def test_round_trip_over_real_sockets(self, base_url):
        status, body = self.request(f"{base_url}/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body = self.request(
            f"{base_url}/v1/tenants", {"name": "vr", "lane": "interactive"}
        )
        assert status == 201
        status, body = self.request(f"{base_url}/v1/tenants")
        assert [t["name"] for t in json.loads(body)["tenants"]] == ["vr"]

    def test_error_statuses_travel(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self.request(f"{base_url}/v1/commands",
                         {"tenant": "ghost", "command": "cutplane"})
        assert exc.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as exc:
            self.request(f"{base_url}/nope")
        assert exc.value.code == 404

    @pytest.mark.parametrize("path", ["/v1/commands", "/v1/tenants"])
    @pytest.mark.parametrize("raw", [b"[1, 2]", b'"x"', b"5"])
    def test_non_object_json_body_is_400(self, base_url, path, raw):
        req = urllib.request.Request(
            f"{base_url}{path}", data=raw, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        assert "JSON object" in json.loads(exc.value.read())["error"]

    def test_invalid_json_body_is_400(self, base_url):
        req = urllib.request.Request(
            f"{base_url}/v1/tenants", data=b"not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400


def test_answered_requests_release_their_geometry():
    """A served session keeps no answered request's packets or payloads,
    and no answered handle keeps its run record."""
    from repro.serve.cli import build_serve_app

    app = build_serve_app("engine", workers=2)
    assert app.handle("POST", "/v1/tenants", {"name": "a"})[0] == 201
    bodies = [
        {"command": "iso-dataman", "params": {"isovalue": -0.3}},
        {"command": "vortex-dataman", "params": {"threshold": -0.5}},
        {"command": "iso-viewer", "params": {"isovalue": -0.2}},
        {"command": "cutplane", "params": {"normal": [0, 0, 1], "offset": 0.8}},
    ] * 2
    for body in bodies:
        status, payload = app.handle("POST", "/v1/commands", {"tenant": "a", **body})
        assert status == 200, payload
        assert payload["state"] == "done"
    client = app.server.backend.session.client
    assert not client.packets_by_request
    assert not client.progress and not client.progress_times
    assert not client._seen
    handles = app.server.handles
    assert len(handles) == len(bodies)
    assert all(h.outcome is None for h in handles)


def test_a_failed_request_says_why():
    """A command that raises inside the session answers 500 with the
    exception's text, so the client learns what was wrong (params the
    declaration or the data refuse answer 400 before the session sees
    them)."""
    from repro.serve.cli import build_serve_app
    from tests.conftest import FailingCommand

    app = build_serve_app("engine", workers=2)
    app.server.backend.session.scheduler.registry.register(FailingCommand)
    assert app.handle("POST", "/v1/tenants", {"name": "a"})[0] == 201
    status, payload = app.handle("POST", "/v1/commands", {
        "tenant": "a", "command": FailingCommand.name, "params": {},
    })
    assert status == 500
    assert payload["state"] == "failed"
    assert "raised inside its run" in payload["error"]
