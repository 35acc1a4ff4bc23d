"""Declarative SLOs over simulated time: the 100 ms interaction budget.

The VR client models two hard interaction criteria (§1.1, implemented
in :class:`repro.viz.client.InteractionCriteria`); the one a serving
layer must *account* for is the ~100 ms maximum system response time.
This module turns raw per-command observations into the substrate a
multi-tenant serving layer plugs into:

* :class:`SLODefinition` — a declarative objective: which metric of
  which command class must sit under which threshold for which
  fraction of requests;
* :class:`SLOTracker` — streaming ingestion of finished commands
  (latency/runtime histograms with p50/p95/p99 via
  :meth:`~repro.obs.metrics.Histogram.quantile`, good/bad counts,
  degraded-share accounting from :mod:`repro.faults` outcomes) with
  per-command *and* per-tenant rollups;
* error-budget / burn-rate arithmetic over the observed requests —
  "at this failure rate, when is the budget gone?".

Everything is keyed on simulated seconds, so two runs of the same
scenario produce bit-identical attainment numbers — which is what lets
the perf sentry (:mod:`repro.obs.sentry`) gate CI on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Iterable

from .metrics import Histogram

__all__ = [
    "SLO_LATENCY_BUCKETS",
    "SLODefinition",
    "SLOStatus",
    "SLOTracker",
    "default_slos",
]

#: fine-grained buckets [sim s] bracketing the 100 ms criterion tightly
#: (6 edges inside 10..300 ms) while still covering multi-second
#: runtimes; quantile interpolation error stays well under the sentry's
#: comparison tolerance.
SLO_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.02, 0.035, 0.05, 0.075, 0.1, 0.15,
    0.2, 0.3, 0.5, 0.75, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0, 20.0, 35.0,
    50.0, 100.0, 250.0, 1000.0,
)


@dataclass(frozen=True)
class SLODefinition:
    """One declarative service-level objective.

    ``command_class`` is an ``fnmatch`` pattern against the command
    name (``"*"``, ``"iso-*"``, ``"pathlines-dataman"``); ``metric``
    selects which observed quantity the threshold applies to.
    """

    name: str
    metric: str  #: "latency" | "runtime" | "queue_wait" | "ttfa" | "degraded"
    threshold: float  #: seconds; ignored for "degraded"
    target: float = 0.95  #: required good fraction (0..1]
    command_class: str = "*"

    def __post_init__(self):
        if self.metric not in (
            "latency", "runtime", "queue_wait", "ttfa", "degraded"
        ):
            raise ValueError(f"unknown SLO metric {self.metric!r}")
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {self.target}")

    def matches(self, command: str) -> bool:
        return fnmatchcase(command, self.command_class)

    def is_good(self, observation: "Observation") -> bool:
        if self.metric == "degraded":
            return not observation.degraded
        value = getattr(observation, self.metric)
        return value <= self.threshold


@dataclass(frozen=True)
class Observation:
    """One finished command as the tracker sees it."""

    command: str
    latency: float  #: submit → first data at the client [sim s]
    runtime: float  #: submit → final package [sim s]
    degraded: bool = False
    tenant: str = "default"
    queue_wait: float = 0.0  #: submit → dispatch in a serving queue [sim s]
    #: submit → first complete approximation [sim s]; equals ``latency``
    #: for commands without progressive approximation markers.
    ttfa: float = 0.0


@dataclass
class _Window:
    """Good/bad counts plus the value histogram for one rollup cell."""

    good: int = 0
    bad: int = 0
    values: Histogram | None = None

    @property
    def total(self) -> int:
        return self.good + self.bad

    def observe(self, good: bool, value: float | None) -> None:
        if good:
            self.good += 1
        else:
            self.bad += 1
        if value is not None:
            if self.values is None:
                self.values = Histogram("slo_values", SLO_LATENCY_BUCKETS)
            self.values.observe(value)


@dataclass(frozen=True)
class SLOStatus:
    """Evaluated state of one SLO over one rollup cell."""

    slo: SLODefinition
    key: str  #: command or tenant the rollup is for ("all" = everything)
    total: int
    good: int
    p50: float
    p95: float
    p99: float

    @property
    def bad(self) -> int:
        return self.total - self.good

    @property
    def attainment(self) -> float:
        return self.good / self.total if self.total else 1.0

    @property
    def met(self) -> bool:
        return self.attainment >= self.slo.target

    @property
    def error_budget(self) -> float:
        """Allowed bad events for this window (fractional)."""
        return (1.0 - self.slo.target) * self.total

    @property
    def budget_remaining(self) -> float:
        """Fraction of the error budget still unspent (can go negative)."""
        budget = self.error_budget
        if budget <= 0:
            return 0.0 if self.bad else 1.0
        return 1.0 - self.bad / budget

    @property
    def burn_rate(self) -> float:
        """Bad-fraction over budget-fraction: 1.0 burns exactly on target."""
        allowed = 1.0 - self.slo.target
        if allowed <= 0:
            return float("inf") if self.bad else 0.0
        if not self.total:
            return 0.0
        return (self.bad / self.total) / allowed


class SLOTracker:
    """Streaming SLO accounting with per-command / per-tenant rollups."""

    def __init__(self, slos: Iterable[SLODefinition] | None = None):
        self.slos: list[SLODefinition] = list(
            slos if slos is not None else default_slos()
        )
        names = [s.name for s in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        #: (slo.name, dimension, key) -> window; dimension is
        #: "command" | "tenant" | "all" (key "all" aggregates everything).
        self._windows: dict[tuple[str, str, str], _Window] = {}
        self.observations = 0

    # --------------------------------------------------------- ingestion
    def observe(
        self,
        command: str,
        latency: float,
        runtime: float,
        degraded: bool = False,
        tenant: str = "default",
        queue_wait: float = 0.0,
        ttfa: float | None = None,
    ) -> None:
        obs = Observation(
            command, latency, runtime, degraded, tenant, queue_wait,
            ttfa=latency if ttfa is None else ttfa,
        )
        self.observations += 1
        for slo in self.slos:
            if not slo.matches(command):
                continue
            good = slo.is_good(obs)
            value = None
            if slo.metric in ("latency", "runtime", "queue_wait", "ttfa"):
                value = getattr(obs, slo.metric)
            for dim, key in (
                ("command", command), ("tenant", tenant), ("all", "all")
            ):
                cell = self._windows.get((slo.name, dim, key))
                if cell is None:
                    cell = self._windows[(slo.name, dim, key)] = _Window()
                cell.observe(good, value)

    def observe_result(self, result: Any, tenant: str | None = None) -> None:
        """Ingest one :class:`~repro.core.session.CommandResult`."""
        if tenant is None:
            tenant = getattr(result, "tenant", "default")
        self.observe(
            result.command,
            latency=result.latency,
            runtime=result.total_runtime,
            degraded=result.degraded,
            tenant=tenant,
            queue_wait=getattr(result, "queue_wait_s", 0.0),
            ttfa=getattr(result, "ttfa_s", None),
        )

    # -------------------------------------------------------- evaluation
    def _status(self, slo: SLODefinition, dim: str, key: str) -> SLOStatus | None:
        cell = self._windows.get((slo.name, dim, key))
        if cell is None or cell.total == 0:
            return None
        h = cell.values
        q = (lambda p: h.quantile(p)) if h is not None else (lambda p: 0.0)
        return SLOStatus(
            slo=slo, key=key, total=cell.total, good=cell.good,
            p50=q(0.50), p95=q(0.95), p99=q(0.99),
        )

    def keys(self, dim: str = "command") -> list[str]:
        return sorted({
            key for (_name, d, key) in self._windows if d == dim
        })

    def status(
        self, dim: str = "command", slo_name: str | None = None
    ) -> list[SLOStatus]:
        """Evaluated rollups, one row per (SLO, key) with data."""
        out: list[SLOStatus] = []
        for slo in self.slos:
            if slo_name is not None and slo.name != slo_name:
                continue
            for key in self.keys(dim):
                st = self._status(slo, dim, key)
                if st is not None:
                    out.append(st)
        return out

    def overall(self, slo_name: str) -> SLOStatus | None:
        slo = next((s for s in self.slos if s.name == slo_name), None)
        if slo is None:
            raise KeyError(f"unknown SLO {slo_name!r}")
        return self._status(slo, "all", "all")

    def all_met(self) -> bool:
        return all(st.met for st in self.status("all"))

    # --------------------------------------------------------- rendering
    def format_report(self, dim: str = "command") -> str:
        """Markdown table of every rollup row, worst burn first."""
        rows = self.status(dim)
        rows.sort(key=lambda st: (-st.burn_rate, st.slo.name, st.key))
        lines = [
            f"SLO report ({self.observations} observations, by {dim}):",
            "",
            f"| slo | {dim} | n | attain | target | p50 ms | p95 ms "
            "| p99 ms | budget left | burn |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for st in rows:
            flag = "" if st.met else " ⚠"
            lines.append(
                f"| {st.slo.name}{flag} | {st.key} | {st.total} "
                f"| {st.attainment:.1%} | {st.slo.target:.0%} "
                f"| {st.p50 * 1e3:.2f} | {st.p95 * 1e3:.2f} "
                f"| {st.p99 * 1e3:.2f} | {st.budget_remaining:+.0%} "
                f"| {st.burn_rate:.2f} |"
            )
        return "\n".join(lines)

    # ----------------------------------------------------------- metrics
    def publish_metrics(self, registry) -> None:
        """Sync attainment and quantiles into a metrics registry."""
        for st in self.status("command"):
            labels = {"slo": st.slo.name, "command": st.key}
            registry.gauge(
                "viracocha_slo_attainment", labels,
                help="good fraction per SLO and command",
            ).set(st.attainment)
            registry.gauge(
                "viracocha_slo_burn_rate", labels,
                help="error-budget burn rate (1.0 = burning exactly on target)",
            ).set(st.burn_rate)
            for q, value in (("p50", st.p50), ("p95", st.p95), ("p99", st.p99)):
                registry.gauge(
                    "viracocha_slo_quantile_seconds",
                    {**labels, "quantile": q},
                    help="observed latency/runtime quantiles per SLO",
                ).set(value)


def default_slos(criteria=None) -> list[SLODefinition]:
    """The stock objectives, derived from the VR interaction criteria.

    * ``interactive-response``: first feedback within the ~100 ms
      maximum system response time for every command class;
    * ``interactive-first-frame``: a *complete* first approximation
      (TTFA) within the same response budget — the bound progressive
      streaming exists to meet;
    * ``complete-results``: commands must not serve degraded (partial)
      merges — the share-loss rate from :mod:`repro.faults` recovery.
    """
    from ..viz.client import InteractionCriteria

    criteria = criteria or InteractionCriteria()
    return [
        SLODefinition(
            name="interactive-response",
            metric="latency",
            threshold=criteria.max_response_time_s,
            target=0.95,
            command_class="*",
        ),
        SLODefinition(
            name="interactive-first-frame",
            metric="ttfa",
            threshold=criteria.max_response_time_s,
            target=0.95,
            command_class="*",
        ),
        SLODefinition(
            name="complete-results",
            metric="degraded",
            threshold=0.0,
            target=0.99,
            command_class="*",
        ),
    ]
