"""CLI verbs for the serving layer: ``repro loadtest`` / ``repro serve``.

``loadtest`` runs the deterministic DES soak (thousands of simulated
tenants, seeded arrivals, entirely in simulated time) and reports
per-tenant SLO rollups through :mod:`repro.obs.slo`; ``--replay`` runs
the workload twice and fails unless the two fingerprints are
byte-identical — the determinism gate CI enforces.

``serve`` boots the HTTP/REST facade over a real
:class:`~repro.core.session.ViracochaSession`.  Both verbs take their
options already parsed by :mod:`repro.__main__` against its ``USAGE``
table, so an unknown flag is a usage error, never silently ignored.
"""

from __future__ import annotations

from typing import Any


def loadtest_main(flags: dict[str, Any]) -> int:
    """Deterministic multi-tenant soak in simulated time.

    ``flags`` are the verb's parsed ``--flag`` options; a return of 2
    (bad option value) makes the caller print the usage line.
    """
    from .loadgen import LoadSpec, run_loadtest

    try:
        spec = LoadSpec(
            n_tenants=int(flags.get("tenants", 1000)),
            seed=int(flags.get("seed", 0)),
            requests_per_tenant=int(flags.get("requests", 3)),
            rate_hz=float(flags.get("rate", 0.2)),
            arrival=str(flags.get("arrival", "poisson")),
            slots=int(flags.get("slots", 16)),
            cancel_frac=float(flags.get("cancel-frac", 0.05)),
            priority_frac=float(flags.get("priority-frac", 0.1)),
            max_in_flight=int(flags.get("max-in-flight", 2)),
        )
    except ValueError as exc:
        print(f"bad loadtest options: {exc}")
        return 2
    report = run_loadtest(spec)
    if flags.get("replay"):
        replay = run_loadtest(spec)
        if replay.fingerprint != report.fingerprint:
            print("REPLAY MISMATCH: the same spec produced two different "
                  "fingerprints")
            print(f"  run 1: {report.fingerprint}")
            print(f"  run 2: {replay.fingerprint}")
            return 1
    out = flags.get("out")
    if out:
        report.write_json(str(out))
    if flags.get("json"):
        import json

        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format())
        if flags.get("replay"):
            print("\nreplay: fingerprints identical across two runs")
        if out:
            print(f"wrote per-tenant rollup to {out}")
    return 0


def build_serve_app(data: str = "engine", workers: int = 4,
                    slots: int = 1):
    """A :class:`~repro.serve.rest.ServeApp` over a real session."""
    from ..bench.calibration import paper_cluster, paper_costs
    from ..core.session import ViracochaSession
    from ..synth import build_engine, build_propfan
    from .rest import ServeApp
    from .server import SessionBackend, TenantServer, serve_slos

    builders = {"engine": build_engine, "propfan": build_propfan}
    if data not in builders:
        raise KeyError(data)
    dataset = builders[data](base_resolution=4, n_timesteps=2)
    session = ViracochaSession(
        dataset,
        cluster_config=paper_cluster(workers),
        costs=paper_costs(),
    )
    backend = SessionBackend(session, slots=slots)
    server = TenantServer(backend, slos=serve_slos())
    return ServeApp(server)


def serve_main(flags: dict[str, Any]) -> int:
    """Boot the HTTP facade (blocks until interrupted); ``flags`` as
    for :func:`loadtest_main`."""
    host = str(flags.get("host", "127.0.0.1"))
    try:
        port = int(flags.get("port", 8642))
        workers = int(flags.get("workers", 4))
        slots = int(flags.get("slots", 1))
    except ValueError:
        print("--port, --workers and --slots must be integers")
        return 2
    if workers < 1 or slots < 1:
        print("--workers and --slots must be positive")
        return 2
    data = str(flags.get("data", "engine"))
    try:
        app = build_serve_app(data, workers=workers, slots=slots)
    except KeyError:
        print("--data must be engine or propfan")
        return 2
    from .rest import make_http_server

    httpd = make_http_server(app, host=host, port=port)
    bound = httpd.server_address
    print(f"serving {data} ({workers} workers, {slots} slots) "
          f"on http://{bound[0]}:{bound[1]}")
    print("routes: /healthz /v1/tenants /v1/commands /v1/slo /v1/metrics")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
    return 0
