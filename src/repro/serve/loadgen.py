"""Deterministic DES workload generation: thousands of tenants.

The load generator is to the serving layer what
:class:`repro.faults.FaultPlan` is to the chaos suite: *every* random
draw happens at build time from ``random.Random`` seeded per tenant, so
the simulation itself consumes no entropy and two runs of the same
:class:`LoadSpec` replay byte-identically (pinned via
:meth:`TenantServer.fingerprint`).

A :class:`LoadSpec` describes the fleet statistically — tenant count,
arrival process (Poisson or bursty on/off), service-time distribution,
lane/weight mix, quotas, cancellation rate — and
:func:`build_workloads` expands it into explicit per-tenant schedules.
:func:`run_loadtest` then drives a :class:`TenantServer` over a
:class:`ModeledBackend` entirely in simulated time and returns a
:class:`LoadReport` with per-tenant SLO rollups from the shared
:class:`repro.obs.slo.SLOTracker`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

from ..des.kernel import Environment
from .server import ModeledBackend, ServiceProfile, TenantServer, serve_slos
from .tenancy import LANE_INTERACTIVE, LANE_NORMAL, TenantConfig

__all__ = [
    "LoadReport",
    "LoadSpec",
    "RequestPlan",
    "TenantWorkload",
    "build_workloads",
    "run_loadtest",
]

#: synthetic command mix (name, relative weight, service-time scale).
#: Names are real command classes so SLO ``command_class`` patterns
#: apply; scales mirror the observed runtime ordering (cutplane fastest,
#: vortex heaviest).
COMMAND_MIX = (
    ("cutplane", 4, 0.5),
    ("iso-dataman", 3, 1.0),
    ("pathlines-dataman", 2, 1.4),
    ("vortex-dataman", 1, 2.2),
)


@dataclass(frozen=True)
class RequestPlan:
    """One pre-drawn submission."""

    at: float  #: absolute simulated submit time
    command: str
    service: ServiceProfile
    cost_bytes: int
    cancel_after: float | None = None  #: cancel this long after submit


@dataclass
class TenantWorkload:
    """One tenant's config plus its full submission schedule."""

    config: TenantConfig
    requests: list[RequestPlan] = field(default_factory=list)


@dataclass(frozen=True)
class LoadSpec:
    """Statistical description of a fleet-scale workload."""

    n_tenants: int = 100
    seed: int = 0
    requests_per_tenant: int = 3
    #: "poisson" — exponential inter-arrivals at ``rate_hz`` per tenant;
    #: "bursty" — bursts of ``burst_size`` back-to-back submits
    #: separated by exponential gaps of mean ``burst_gap_s``.
    arrival: str = "poisson"
    rate_hz: float = 0.05
    burst_size: int = 3
    burst_gap_s: float = 60.0
    #: lognormal service times around ``service_mean_s`` (sigma from
    #: ``service_cv``), scaled per command class.
    service_mean_s: float = 0.03
    service_cv: float = 0.4
    first_byte_frac: float = 0.3
    #: fraction of tenants in the interactive lane (weight 4 vs 1).
    priority_frac: float = 0.1
    max_in_flight: int = 2
    byte_budget: int | None = None
    cost_bytes_mean: int = 1 << 20
    cancel_frac: float = 0.0
    #: modeled cluster capacity (concurrent commands).
    slots: int = 8

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {self.n_tenants}")
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(
                f"arrival must be poisson or bursty, got {self.arrival!r}"
            )
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be > 0, got {self.rate_hz}")
        if not 0.0 <= self.cancel_frac <= 1.0:
            raise ValueError(
                f"cancel_frac must be in [0, 1], got {self.cancel_frac}"
            )


def _tenant_rng(spec: LoadSpec, index: int) -> random.Random:
    """A private RNG per tenant — draws never interleave across tenants."""
    return random.Random((spec.seed << 24) ^ (index * 0x9E3779B1 + 1))


def build_workloads(spec: LoadSpec) -> list[TenantWorkload]:
    """Expand ``spec`` into explicit schedules (all randomness here)."""
    commands = [c for c in COMMAND_MIX for _ in range(c[1])]
    sigma = math.sqrt(math.log(1.0 + spec.service_cv**2))
    mu_base = math.log(spec.service_mean_s) - 0.5 * sigma * sigma
    workloads: list[TenantWorkload] = []
    for idx in range(spec.n_tenants):
        rng = _tenant_rng(spec, idx)
        interactive = rng.random() < spec.priority_frac
        config = TenantConfig(
            name=f"tenant-{idx:04d}",
            weight=4 if interactive else 1,
            lane=LANE_INTERACTIVE if interactive else LANE_NORMAL,
            max_in_flight=spec.max_in_flight,
            byte_budget=spec.byte_budget,
        )
        t = 0.0
        burst_left = 0
        requests: list[RequestPlan] = []
        for _ in range(spec.requests_per_tenant):
            if spec.arrival == "poisson":
                t += rng.expovariate(spec.rate_hz)
            else:
                if burst_left <= 0:
                    t += rng.expovariate(1.0 / spec.burst_gap_s)
                    burst_left = spec.burst_size
                burst_left -= 1
            name, _w, scale = commands[rng.randrange(len(commands))]
            total = rng.lognormvariate(mu_base + math.log(scale), sigma)
            profile = ServiceProfile(
                total_s=total,
                first_byte_s=spec.first_byte_frac * total,
            )
            cancel_after = None
            if spec.cancel_frac and rng.random() < spec.cancel_frac:
                cancel_after = rng.uniform(0.0, total)
            requests.append(
                RequestPlan(
                    at=t,
                    command=name,
                    service=profile,
                    cost_bytes=max(int(rng.expovariate(
                        1.0 / spec.cost_bytes_mean)), 1),
                    cancel_after=cancel_after,
                )
            )
        workloads.append(TenantWorkload(config=config, requests=requests))
    return workloads


@dataclass
class LoadReport:
    """Everything one load/soak run produced."""

    spec: LoadSpec
    server: TenantServer
    fingerprint: str
    sim_duration_s: float
    submitted: int
    admitted: int
    rejected: int
    completed: int
    cancelled: int
    failed: int
    queue_waits: list[float]

    # ---------------------------------------------------------- analysis
    def queue_wait_quantile(self, q: float) -> float:
        """Exact empirical quantile over every started command."""
        if not self.queue_waits:
            return 0.0
        values = sorted(self.queue_waits)
        pos = min(int(q * len(values)), len(values) - 1)
        return values[pos]

    @property
    def tracker(self):
        return self.server.tracker

    def to_json(self) -> dict[str, Any]:
        """The per-tenant SLO rollup artifact (CI uploads this)."""
        tracker = self.tracker
        tenants = {
            name: state.snapshot()
            for name, state in sorted(self.server.tenants.items())
        }
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
        return {
            "spec": {
                "n_tenants": self.spec.n_tenants,
                "seed": self.spec.seed,
                "requests_per_tenant": self.spec.requests_per_tenant,
                "arrival": self.spec.arrival,
                "slots": self.spec.slots,
            },
            "fingerprint": self.fingerprint,
            "sim_duration_s": self.sim_duration_s,
            "counts": {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "cancelled": self.cancelled,
                "failed": self.failed,
            },
            "queue_wait_p50_s": self.queue_wait_quantile(0.50),
            "queue_wait_p99_s": self.queue_wait_quantile(0.99),
            "tenants": tenants,
            "slo_rollups": rollups,
        }

    def format(self, worst: int = 8) -> str:
        """Human summary: counts, queue waits, worst tenants by burn."""
        tracker = self.tracker
        lines = [
            f"loadtest: {self.spec.n_tenants} tenants, seed {self.spec.seed}, "
            f"{self.spec.arrival} arrivals, {self.spec.slots} slots",
            f"  simulated duration: {self.sim_duration_s:.3f} s",
            f"  submitted {self.submitted}  admitted {self.admitted}  "
            f"rejected {self.rejected}  completed {self.completed}  "
            f"cancelled {self.cancelled}  failed {self.failed}",
            f"  queue wait p50 {self.queue_wait_quantile(0.5) * 1e3:.2f} ms  "
            f"p99 {self.queue_wait_quantile(0.99) * 1e3:.2f} ms",
            f"  fingerprint: {self.fingerprint}",
            "",
        ]
        overall = tracker.overall("interactive-response")
        if overall is not None:
            lines.append(
                f"  interactive-response (100 ms criterion): "
                f"{overall.attainment:.2%} of {overall.total} "
                f"(p50 {overall.p50 * 1e3:.2f} ms, p99 {overall.p99 * 1e3:.2f} ms)"
            )
        rows = tracker.status("tenant")
        rows.sort(key=lambda st: (-st.burn_rate, st.slo.name, st.key))
        shown = rows[:worst]
        if shown:
            lines.append(f"  worst {len(shown)} tenant rollups by burn rate:")
            for st in shown:
                flag = "" if st.met else " !"
                lines.append(
                    f"    {st.slo.name:22s} {st.key} n={st.total} "
                    f"attain={st.attainment:.1%} p99={st.p99 * 1e3:.2f} ms "
                    f"burn={st.burn_rate:.2f}{flag}"
                )
        return "\n".join(lines)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)


def _tenant_driver(env: Environment, server: TenantServer,
                   workload: TenantWorkload):
    """Process body: one tenant submitting (and cancelling) on schedule."""
    name = workload.config.name
    for plan in workload.requests:
        if plan.at > env.now:
            yield env.timeout(plan.at - env.now)
        handle = server.submit(
            name, plan.command,
            cost_bytes=plan.cost_bytes,
            service=plan.service,
        )
        if handle.state == "rejected":
            continue
        if plan.cancel_after is not None:
            env.process(
                _canceller(env, server, handle, plan.cancel_after),
                name=f"cancel-{name}-{handle.request_id}",
            )


def _canceller(env: Environment, server: TenantServer, handle, delay: float):
    if delay > 0:
        yield env.timeout(delay)
    server.cancel(handle)


def run_loadtest(
    spec: LoadSpec,
    slos: list | None = None,
) -> LoadReport:
    """Drive the whole fleet in simulated time; always terminates."""
    workloads = build_workloads(spec)
    env = Environment()
    backend = ModeledBackend(env, slots=spec.slots)
    server = TenantServer(
        backend,
        slos=slos if slos is not None else serve_slos(),
    )
    for workload in workloads:
        server.register(workload.config)
    server.start()
    for workload in workloads:
        env.process(
            _tenant_driver(env, server, workload),
            name=f"driver-{workload.config.name}",
        )
    env.run()
    counts = {"submitted": 0, "rejected": 0, "completed": 0,
              "cancelled": 0, "failed": 0}
    queue_waits: list[float] = []
    for handle in server.handles:
        counts["submitted"] += 1
        if handle.state == "rejected":
            counts["rejected"] += 1
        elif handle.state == "done":
            counts["completed"] += 1
        elif handle.state == "cancelled":
            counts["cancelled"] += 1
        elif handle.state == "failed":  # pragma: no cover - modeled never fails
            counts["failed"] += 1
        if handle.t_start is not None:
            queue_waits.append(handle.queue_wait_s)
    return LoadReport(
        spec=spec,
        server=server,
        fingerprint=server.fingerprint(),
        sim_duration_s=env.now,
        submitted=counts["submitted"],
        admitted=counts["submitted"] - counts["rejected"],
        rejected=counts["rejected"],
        completed=counts["completed"],
        cancelled=counts["cancelled"],
        failed=counts["failed"],
        queue_waits=queue_waits,
    )
