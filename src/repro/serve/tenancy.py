"""Tenant registry: identity, weights, lanes, quotas, accounting.

A *tenant* is one logical client of the serving layer — a VR
workstation, a batch pipeline, a dashboard.  Its :class:`TenantConfig`
declares how the shared cluster treats it:

* ``weight`` — share of the fair queue's weighted round-robin within
  its lane (a weight-4 tenant gets 4× the service of a weight-1 tenant
  under contention);
* ``lane`` — strict priority class: :data:`LANE_INTERACTIVE` always
  dispatches before :data:`LANE_NORMAL`, which always dispatches
  before :data:`LANE_BACKGROUND`;
* ``max_in_flight`` — admission quota: commands admitted (queued or
  running) but not yet finished;
* ``byte_budget`` — admission quota on the summed declared
  ``cost_bytes`` of admitted commands (the block-bytes a command is
  expected to pull through the DMS), ``None`` = unlimited.

Admission is checked at submit time and never afterwards: an admitted
command keeps its slot until it completes, fails, or is cancelled.
:class:`TenantState` carries the live counters the server maintains;
its peak values are what the quota property tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "LANE_INTERACTIVE",
    "LANE_NORMAL",
    "LANE_BACKGROUND",
    "LANE_NAMES",
    "N_LANES",
    "AdmissionDecision",
    "TenantConfig",
    "TenantState",
]

#: strict priority lanes, dispatched in ascending order.
LANE_INTERACTIVE = 0
LANE_NORMAL = 1
LANE_BACKGROUND = 2
N_LANES = 3
LANE_NAMES = ("interactive", "normal", "background")


@dataclass(frozen=True)
class TenantConfig:
    """Declarative per-tenant policy (immutable once registered)."""

    name: str
    weight: int = 1
    lane: int = LANE_NORMAL
    max_in_flight: int = 4
    byte_budget: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")
        if not 0 <= self.lane < N_LANES:
            raise ValueError(f"lane must be in 0..{N_LANES - 1}, got {self.lane}")
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.byte_budget is not None and self.byte_budget < 1:
            raise ValueError(f"byte_budget must be >= 1, got {self.byte_budget}")


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check."""

    admitted: bool
    reason: str = "ok"  #: "ok" | "in-flight-quota" | "byte-budget" | "unknown-tenant"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.admitted


@dataclass
class TenantState:
    """Live accounting for one registered tenant.

    ``in_flight`` counts admitted-but-unfinished commands (queued plus
    running); the ``peak_*`` fields are high-water marks the quota
    properties assert against (peaks may never exceed the config).
    """

    config: TenantConfig
    in_flight: int = 0
    queued: int = 0
    running: int = 0
    bytes_in_use: int = 0
    peak_in_flight: int = 0
    peak_bytes: int = 0
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    degraded: int = 0
    failed: int = 0
    cancelled: int = 0
    max_queue_wait_s: float = 0.0
    reject_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.config.name

    # --------------------------------------------------------- admission
    def check(self, cost_bytes: int) -> AdmissionDecision:
        """Would one more command of ``cost_bytes`` be admitted now?"""
        cfg = self.config
        if self.in_flight >= cfg.max_in_flight:
            return AdmissionDecision(False, "in-flight-quota")
        if cfg.byte_budget is not None and (
            self.bytes_in_use + cost_bytes > cfg.byte_budget
        ):
            return AdmissionDecision(False, "byte-budget")
        return AdmissionDecision(True)

    def admit(self, cost_bytes: int) -> None:
        self.in_flight += 1
        self.queued += 1
        self.bytes_in_use += cost_bytes
        self.admitted += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)

    def release(self, cost_bytes: int) -> None:
        """Return one admission slot (completion, failure or cancel)."""
        self.in_flight -= 1
        self.bytes_in_use -= cost_bytes
        assert self.in_flight >= 0 and self.bytes_in_use >= 0, (
            f"tenant {self.name!r} released more than it admitted"
        )

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1

    # ---------------------------------------------------------- reporting
    def snapshot(self) -> dict:
        """JSON-ready state (REST facade and loadtest artifacts)."""
        cfg = self.config
        return {
            "name": cfg.name,
            "weight": cfg.weight,
            "lane": LANE_NAMES[cfg.lane],
            "max_in_flight": cfg.max_in_flight,
            "byte_budget": cfg.byte_budget,
            "in_flight": self.in_flight,
            "queued": self.queued,
            "running": self.running,
            "bytes_in_use": self.bytes_in_use,
            "peak_in_flight": self.peak_in_flight,
            "peak_bytes": self.peak_bytes,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "degraded": self.degraded,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "max_queue_wait_s": self.max_queue_wait_s,
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
        }
