"""repro.serve — the multi-tenant serving layer.

The paper assumes a single ViSTA client driving one scheduler; this
package is the production answer to *thousands* of concurrent sessions
contending for the same cluster.  It layers, over the existing
channel/``Scheduler``/``Session`` stack:

* :mod:`repro.serve.tenancy` — tenant registry: weights, priority
  lanes, admission quotas (max in-flight commands, block-bytes
  budgets) and per-tenant accounting;
* :mod:`repro.serve.queue` — :class:`FairCommandQueue`, a weighted
  round-robin command queue with strict priority lanes;
* :mod:`repro.serve.server` — :class:`TenantServer`, the long-lived
  front end: admission control, fair dispatch, cooperative
  cancellation, and per-tenant SLO rollups feeding
  :class:`repro.obs.slo.SLOTracker` (one SLO engine, not two);
* :mod:`repro.serve.loadgen` — a deterministic DES workload generator
  that drives thousands of simulated tenants with seeded
  Poisson/bursty arrival processes entirely in simulated time;
* :mod:`repro.serve.rest` — a thin HTTP/REST facade (stdlib
  ``http.server``; no external web framework required) for real
  traffic.

CLI: ``python -m repro loadtest`` (DES soak) and ``python -m repro
serve`` (HTTP facade).  See ``docs/SERVING.md``.
"""

from .loadgen import LoadReport, LoadSpec, build_workloads, run_loadtest
from .queue import FairCommandQueue
from .server import (
    ModeledBackend,
    RequestState,
    ServeHandle,
    ServiceProfile,
    SessionBackend,
    TenantServer,
    serve_slos,
)
from .tenancy import (
    LANE_BACKGROUND,
    LANE_INTERACTIVE,
    LANE_NAMES,
    LANE_NORMAL,
    AdmissionDecision,
    TenantConfig,
    TenantState,
)

__all__ = [
    "AdmissionDecision",
    "FairCommandQueue",
    "LANE_BACKGROUND",
    "LANE_INTERACTIVE",
    "LANE_NAMES",
    "LANE_NORMAL",
    "LoadReport",
    "LoadSpec",
    "ModeledBackend",
    "RequestState",
    "ServeHandle",
    "ServiceProfile",
    "SessionBackend",
    "TenantConfig",
    "TenantServer",
    "TenantState",
    "build_workloads",
    "run_loadtest",
    "serve_slos",
]
