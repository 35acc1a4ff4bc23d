"""Critical-path analysis: from a span DAG to a phase breakdown.

PR 1's tracer answers "what happened when"; this module answers the
question an operator actually asks: *which phase blew this command's
latency budget?*  For every completed command it

1. reconstructs the span DAG (scheduler ``command`` span → ``worker``
   shares → DMS ``load``/``dms-lookup``/``dms-strategy-load`` requests
   → ``merge`` → ``stream-packet`` transfers, including cross-process
   ``parallel-share`` intervals imported via
   :meth:`~repro.obs.spans.SpanTracer.record_interval`),
2. walks the *critical path* — the chain of spans the end-to-end time
   actually waited on — backwards from the finish, and
3. attributes every segment of wall clock to a fixed phase taxonomy
   (:data:`PHASES`), so the per-phase seconds sum to the command's
   wall time (coverage is 1.0 by construction when the root span
   brackets the run; off-path worker-idle seconds are added to the
   ``queue`` phase on top, so runs with heavy imbalance can exceed it).

The critical path through a fork-join DAG is found per join point: at
any instant the path follows the child span that ended *last* before
the clock can advance past it; gaps no child covers are the parent's
own time.  For Viracocha's fork-join command structure this is exact —
the merge (or final packet) cannot start before the last share arrives,
so the last-finishing chain is precisely what the client waited on.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .spans import Span

__all__ = [
    "PHASES",
    "PhaseSegment",
    "CriticalPathReport",
    "analyze_result",
    "analyze_spans",
    "critical_segments",
    "phase_of_segment",
    "publish_phase_metrics",
]

#: the fixed phase taxonomy every wall-clock second is charged to.
PHASES = (
    "queue",        # request transit, group formation, dispatch overhead
    "load_disk",    # fileserver / local-disk block I/O on the path
    "load_wire",    # node-to-node & collective fabric transfers
    "decompress",   # codec time on compressed transfers (DMSConfig.compression)
    "compute",      # feature extraction on worker cores
    "merge",        # partial-result collection and merge at the master
    "stream",       # result packets to the visualization client
    "recovery",     # retry backoff / reassignment after faults
)

#: span kinds whose *self time* (time not covered by any child) maps
#: straight to one phase.
_SELF_PHASE = {
    "session": "queue",
    "command": "queue",
    "worker": "compute",
    "compute": "compute",
    "merge": "merge",
    "stream-packet": "stream",
    "dms-lookup": "load_disk",      # cache probe + L2 promotion read
    "load": "load_disk",            # waits on in-flight loads land here
    "dms-prefetch": "load_disk",
    "decompress": "decompress",
    # multicore extraction (repro.parallel) span kinds
    "parallel-run": "queue",        # plan + fan-out + result collection
    "parallel-share": "compute",
    "parallel-precompute": "compute",
    "parallel-idle": "queue",       # worker claim waits + run-tail idle
    "parallel-gather": "merge",     # last share's end -> merged result
}

#: span kinds excluded from the critical-path chain competition.  Idle
#: intervals end exactly at the run tail, so letting them compete would
#: displace the straggler's real compute from the path; their seconds
#: are instead added to the ``queue`` phase (see
#: :func:`analyze_spans`), which can push coverage above 1.0 on runs
#: with substantial worker idling — deliberately: imbalance *is* extra
#: latency an operator should see.
_OFF_PATH_KINDS = frozenset({"parallel-idle"})

#: zero-duration fault markers whose presence re-labels an enclosing
#: scheduler-side gap as recovery time.
_RECOVERY_MARKERS = frozenset({
    "fault-retry", "fault-timeout", "fault-reassign", "fault-giveup",
    "fault-crash", "fault-stall",
})

#: loading strategies that move bytes over the fabric rather than the
#: fileserver/disk path (see repro.dms.loading); "dedup-follow" is a
#: cluster-dedup follower pulling the block from the winner's cache.
_WIRE_STRATEGIES = frozenset({"node-transfer", "collective", "dedup-follow"})


@dataclass(frozen=True)
class PhaseSegment:
    """One contiguous slice of the critical path."""

    t_start: float
    t_end: float
    phase: str
    span: Span | None  #: span charged for this slice (None: uncovered gap)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class CriticalPathReport:
    """Phase attribution for one command's wall-clock interval."""

    command: str
    wall: float  #: end-to-end seconds the report covers
    segments: list[PhaseSegment] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def covered(self) -> float:
        """On-path seconds: the chain of segments the finish waited on.

        Off-path worker idle is added to ``phase_seconds["queue"]``
        additively but is *not* path coverage — the finish never waited
        on an idle worker — so it is excluded here to keep
        ``coverage == 1.0`` by construction for bracketed runs.
        """
        return sum(s.duration for s in self.segments)

    @property
    def coverage(self) -> float:
        """Fraction of the wall clock the attribution explains."""
        if self.wall <= 0:
            return 1.0
        return self.covered / self.wall

    @property
    def dominant_phase(self) -> str:
        if not self.phase_seconds:
            return "queue"
        return max(self.phase_seconds.items(), key=lambda kv: kv[1])[0]

    # ------------------------------------------------------- rendering
    def format(self, width: int = 36) -> str:
        """ASCII/markdown table: one row per phase, bar-scaled."""
        lines = [
            f"critical path: {self.command}  "
            f"(wall {self.wall * 1e3:.2f} ms, "
            f"coverage {self.coverage:.1%}, "
            f"dominant: {self.dominant_phase})",
            "",
            "| phase      | seconds    | share  | bar |",
            "|------------|------------|--------|-----|",
        ]
        peak = max(self.phase_seconds.values(), default=0.0)
        for phase in PHASES:
            seconds = self.phase_seconds.get(phase, 0.0)
            share = seconds / self.covered if self.covered > 0 else 0.0
            bar = "#" * (round(width * seconds / peak) if peak > 0 else 0)
            lines.append(
                f"| {phase:<10s} | {seconds:>10.6f} | {share:>5.1%} | {bar} |"
            )
        return "\n".join(lines)

    def format_path(self, limit: int = 40) -> str:
        """The critical chain itself, longest segments first."""
        rows = sorted(self.segments, key=lambda s: -s.duration)[:limit]
        lines = [f"top critical-path segments ({self.command}):"]
        for seg in rows:
            name = seg.span.name if seg.span is not None else "(gap)"
            kind = seg.span.kind if seg.span is not None else "-"
            node = seg.span.node if seg.span is not None else "-"
            lines.append(
                f"  [{seg.t_start:>10.4f} .. {seg.t_end:>10.4f}] "
                f"{seg.duration * 1e3:>9.3f} ms  {seg.phase:<9s} "
                f"{kind}:{name} @node{node}"
            )
        return "\n".join(lines)


# ------------------------------------------------------------------ DAG
def _index_children(spans: Iterable[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    return children


def critical_segments(
    root: Span,
    children: dict[int | None, list[Span]],
    t_lo: float | None = None,
    t_hi: float | None = None,
) -> list[tuple[float, float, Span]]:
    """Chain of ``(t_start, t_end, span)`` slices covering the root.

    Walks backwards from ``t_hi``: the child whose end the clock most
    recently waited on owns the preceding interval (recursively); time
    no child covers is the root's own.  Slices are returned in
    chronological order and partition ``[t_lo, t_hi]`` exactly.
    """
    t_lo = root.t_start if t_lo is None else t_lo
    t_hi = root.t_end if t_hi is None else t_hi
    if t_hi is None or t_hi <= t_lo:
        return []
    kids = [
        c for c in children.get(root.span_id, ())
        if c.t_end is not None and c.t_end > t_lo and c.t_start < t_hi
        and c.duration > 0.0 and c.kind not in _OFF_PATH_KINDS
    ]
    kids.sort(key=lambda c: (c.t_end, c.t_start))
    out: list[tuple[float, float, Span]] = []
    cur = t_hi
    while cur > t_lo and kids:
        # Last child finishing at or before the current frontier.
        pick = None
        while kids:
            cand = kids[-1]
            if cand.t_end <= cur or cand.t_start < cur:
                pick = kids.pop()
                break
            kids.pop()
        if pick is None:
            break
        end = min(pick.t_end, cur)
        if end < cur:
            out.append((end, cur, root))  # gap: root's own time
        lo = max(pick.t_start, t_lo)
        # Sub-chains come back chronological; the whole list is built
        # newest-first and reversed once at the end, so flip them here.
        out.extend(reversed(critical_segments(pick, children, t_lo=lo, t_hi=end)))
        cur = lo
        kids = [c for c in kids if c.t_start < cur]
    if cur > t_lo:
        out.append((t_lo, cur, root))
    out.reverse()
    return out


def phase_of_segment(
    span: Span,
    t_start: float,
    t_end: float,
    marker_times: Sequence[tuple[float, str]] = (),
) -> str:
    """Map one critical-path slice onto the phase taxonomy."""
    kind = span.kind
    if kind == "dms-strategy-load":
        strategy = span.attrs.get("strategy")
        return "load_wire" if strategy in _WIRE_STRATEGIES else "load_disk"
    if kind in ("session", "command"):
        # Scheduler-side self time that brackets a fault marker is the
        # command *recovering* (retry backoff, reassignment), not
        # queueing: the zero-duration fault-* spans pin those instants.
        eps = 1e-12
        for t, _marker_kind in marker_times:
            if t_start - eps <= t <= t_end + eps:
                return "recovery"
        return "queue"
    phase = _SELF_PHASE.get(kind)
    if phase is not None:
        return phase
    if kind.startswith("fault-"):
        return "recovery"
    return "queue"


# ------------------------------------------------------------- analysis
def analyze_spans(
    spans: Sequence[Span],
    command: str | None = None,
    wall: float | None = None,
    root_kinds: tuple[str, ...] = ("session", "parallel-run"),
) -> CriticalPathReport:
    """Build a :class:`CriticalPathReport` from one run's span slice.

    ``spans`` is typically ``CommandResult.spans`` (one root ``session``
    span) or a :class:`~repro.parallel.ParallelExtractor` tracer slice
    (one root ``parallel-run`` span).  ``wall`` defaults to the root
    span's duration.
    """
    finished = [s for s in spans if s.t_end is not None]
    present = {s.span_id for s in finished}
    roots = [
        s for s in finished
        if (s.parent_id is None or s.parent_id not in present)
        and s.kind in root_kinds
    ]
    if not roots:
        # Fall back to any orphan span bracketing the run.
        roots = [
            s for s in finished
            if s.parent_id is None or s.parent_id not in present
        ]
    if not roots:
        return CriticalPathReport(command=command or "?", wall=wall or 0.0)
    root = max(roots, key=lambda s: s.duration)
    children = _index_children(finished)
    markers = [
        (s.t_start, s.kind) for s in finished if s.kind in _RECOVERY_MARKERS
    ]
    markers.sort()
    chain = critical_segments(root, children)
    segments: list[PhaseSegment] = []
    phase_seconds: dict[str, float] = {}
    for t0, t1, span in chain:
        phase = phase_of_segment(span, t0, t1, markers)
        segments.append(PhaseSegment(t0, t1, phase, span))
        phase_seconds[phase] = phase_seconds.get(phase, 0.0) + (t1 - t0)
    # Worker idle (claim waits + run tails) is off-path by design; its
    # seconds are charged to the queue phase additively so imbalance
    # shows up in the breakdown without displacing the straggler's
    # compute from the critical chain.
    idle_total = sum(
        float(s.attrs.get("idle_s", s.duration))
        for s in finished
        if s.kind in _OFF_PATH_KINDS
    )
    if idle_total > 0.0:
        phase_seconds["queue"] = phase_seconds.get("queue", 0.0) + idle_total
    name = command
    if name is None:
        name = root.attrs.get("command") or root.name
    return CriticalPathReport(
        command=str(name),
        wall=wall if wall is not None else root.duration,
        segments=segments,
        phase_seconds=phase_seconds,
    )


def analyze_result(result: Any) -> CriticalPathReport:
    """Analyze one :class:`~repro.core.session.CommandResult`."""
    return analyze_spans(
        result.spans, command=result.command, wall=result.total_runtime
    )


def publish_phase_metrics(registry, report: CriticalPathReport) -> None:
    """Feed one report's per-phase seconds into a metrics registry."""
    for phase in PHASES:
        registry.histogram(
            "viracocha_phase_seconds",
            labels={"command": report.command, "phase": phase},
            help="critical-path seconds attributed to each phase",
        ).observe(report.phase_seconds.get(phase, 0.0))
    registry.gauge(
        "viracocha_phase_coverage",
        labels={"command": report.command},
        help="fraction of wall clock the phase attribution explains",
    ).set(report.coverage)
