"""Chaos-run harness: seeded fault schedules over real commands.

One call — :func:`run_chaos` — builds a fresh session, derives (or
takes) a :class:`FaultPlan`, installs the injector, runs the command,
and returns everything a test needs to assert the robustness
contract:

* same seed ⇒ byte-identical :func:`trace_fingerprint`,
* the command terminates,
* the result is complete or correctly flagged ``degraded``.

To reproduce a failing schedule from a report, re-run with the same
seed and session shape and print ``plan.describe()`` (see
``docs/TESTING.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from .injector import FaultInjector
from .plan import FaultPlan

__all__ = ["ChaosRun", "chaos_session", "degraded_share_rate",
           "fault_free_runtime", "open_spans", "run_chaos",
           "track_slos", "trace_fingerprint"]


def chaos_session(
    n_workers: int = 4,
    base_resolution: int = 4,
    n_timesteps: int = 2,
    recovery: Any = None,
    **kwargs: Any,
):
    """A small, fast session shaped like the test-suite sessions."""
    from ..bench.calibration import paper_session

    return paper_session(
        "engine", n_workers, base_resolution, n_timesteps,
        recovery=recovery, **kwargs,
    )


def fault_free_runtime(
    command: str, params: dict[str, Any], **session_kwargs: Any
) -> float:
    """Simulated runtime of one clean run — the natural plan horizon."""
    session = chaos_session(**session_kwargs)
    return session.run(command, params=dict(params)).total_runtime


@dataclass
class ChaosRun:
    """Everything one seeded chaos run produced."""

    command: str
    params: dict[str, Any]
    seed: int
    plan: FaultPlan
    session: Any
    result: Any  #: the CommandResult
    injector: FaultInjector
    fingerprint: str


def run_chaos(
    command: str,
    params: dict[str, Any],
    seed: int,
    horizon: float,
    plan: FaultPlan | None = None,
    n_events: int = 4,
    **session_kwargs: Any,
) -> ChaosRun:
    """Run ``command`` under a seeded fault schedule; always terminates.

    ``horizon`` bounds when episodes may start — pass (a fraction of)
    :func:`fault_free_runtime` so faults land mid-flight.  A custom
    ``plan`` overrides the seed-derived one.
    """
    session = chaos_session(**session_kwargs)
    if plan is None:
        plan = FaultPlan.random(
            seed, horizon=horizon,
            n_workers=len(session.scheduler.workers), n_events=n_events,
        )
    injector = FaultInjector(plan, session).install()
    result = session.run(command, params=dict(params))
    return ChaosRun(
        command=command,
        params=dict(params),
        seed=seed,
        plan=plan,
        session=session,
        result=result,
        injector=injector,
        fingerprint=trace_fingerprint(result),
    )


def degraded_share_rate(results: "list[Any]") -> float:
    """Fraction of planned work units lost across runs.

    The raw material for the ``complete-results`` SLO: each command
    plans ``planned_units`` units (shares under a static schedule,
    tasks under a dynamic one); unrecoverable ones end up in
    ``failed_shares``.  Accepts :class:`ChaosRun` objects or bare
    ``CommandResult``-shaped results.
    """
    planned = 0
    lost = 0
    for entry in results:
        result = getattr(entry, "result", entry)
        planned += result.planned_units
        lost += len(result.failed_shares)
    return lost / planned if planned else 0.0


def track_slos(results: "list[Any]", tracker: Any = None) -> Any:
    """Feed chaos/command results into an SLO tracker.

    Builds a stock :class:`repro.obs.slo.SLOTracker` when none is
    given, so a chaos suite can report attainment and burn rate with
    one call: ``track_slos(runs).format_report("command")``.

    Results submitted through the serving layer carry their tenant, so
    multi-tenant chaos runs roll up per tenant for free:
    ``track_slos(runs).format_report("tenant")``.
    """
    if tracker is None:
        from ..obs.slo import SLOTracker, default_slos

        tracker = SLOTracker(default_slos())
    for entry in results:
        result = getattr(entry, "result", entry)
        tracker.observe_result(result)
    return tracker


def open_spans(result: Any, ignore_background: bool = True) -> list:
    """Spans a run left unfinished — the crash-leak detector.

    The simulation stops when the client receives the final packet, so
    speculative background I/O (a ``dms-prefetch`` and its children)
    may legitimately still be in flight at that instant, especially
    when a fault episode slowed the fileserver.  With
    ``ignore_background`` those chains are excluded; anything else left
    open means an abort path failed to close its span.
    """
    by_id = {s.span_id: s for s in result.spans}

    def background(span) -> bool:
        while span is not None:
            if span.kind == "dms-prefetch":
                return True
            span = by_id.get(span.parent_id)
        return False

    return [
        s for s in result.spans
        if not s.finished and not (ignore_background and background(s))
    ]


def trace_fingerprint(result: Any) -> str:
    """Deterministic digest of one run's observable behavior.

    Covers the span stream (kind, name, node, timestamps, attributes,
    parent linkage), packet arrival times, the degraded flag, and the
    merged geometry size.  Request ids come from a process-global
    counter, so they differ between repeats of the same seed; they are
    renumbered in first-appearance order (span ids likewise) before
    hashing — everything else must match bit-for-bit.
    """
    h = hashlib.sha256()
    request_ids: dict[Any, int] = {}
    span_ids: dict[int, int] = {}

    def norm_request(value: Any) -> int:
        return request_ids.setdefault(value, len(request_ids))

    for span in result.spans:
        span_ids[span.span_id] = len(span_ids)
        attrs = dict(span.attrs)
        if "request" in attrs:
            attrs["request"] = norm_request(attrs["request"])
        parent = span_ids.get(span.parent_id, -1)
        line = (
            f"{span.kind}|{span.name}|{span.node}|parent={parent}|"
            f"{span.t_start!r}|{span.t_end!r}|{sorted(attrs.items())!r}\n"
        )
        h.update(line.encode())
    for t in result.packet_times:
        h.update(f"packet|{t!r}\n".encode())
    h.update(
        f"degraded|{result.degraded}|{sorted(result.failed_shares)}\n".encode()
    )
    n_triangles = getattr(result.geometry, "n_triangles", None)
    h.update(f"geometry|{n_triangles}\n".encode())
    return h.hexdigest()
