"""The perf regression sentry: one gate over the simulated clock.

A speedup floor watches one number, not the *shape* of a run — a
regression that kept the floors but, say, doubled time spent merging
would sail through.  The sentry closes that hole with two layered
checks, strictest first:

1. **Golden fingerprints** — every sentry command's
   :func:`repro.faults.trace_fingerprint` must match the committed
   baseline byte for byte: the simulated event stream is deterministic,
   so *any* drift is a behavior change, not noise.
2. **Phase breakdown + SLO attainment** — per-command critical-path
   phase seconds (:mod:`repro.obs.critical_path`) and SLO
   quantiles/attainment (:mod:`repro.obs.slo`) against the baseline
   under *noise-aware* thresholds: simulated quantities are
   deterministic in one environment but may shift by float-level
   amounts across numpy versions, so each comparison allows a relative
   band plus an absolute floor instead of exact equality.  The
   progressive-TTFA and dynamic-schedule cells add directional floors
   on their warm speedups.

``python -m repro slo --check`` gates CI against the committed
``sentry_baseline.json``; a nonzero exit is a regression.  The wall
clock is measured by ``benchmarks/e2e``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from ..bench.calibration import paper_session
from ..commands import DEMO_ALIASES, DEMO_PARAMS
from .critical_path import (
    PHASES, analyze_result, analyze_spans, publish_phase_metrics,
)
from .slo import SLOTracker, default_slos

__all__ = [
    "SENTRY_COMMANDS",
    "Tolerance",
    "SentryReport",
    "measure",
    "compare",
    "load_baseline",
    "write_baseline",
]

#: the four headline commands, the same shapes the CLI verbs run.
SENTRY_COMMANDS: list[tuple[str, dict]] = [
    (name, DEMO_PARAMS[name]) for name in DEMO_ALIASES.values()
]


@dataclass(frozen=True)
class Tolerance:
    """Noise bands for baseline comparisons.

    Simulated seconds are deterministic on one toolchain; the bands
    absorb float-level drift across numpy/python versions without
    letting a real regression (a phase growing by tens of percent)
    through.  ``abs_s`` keeps sub-millisecond phases from tripping the
    relative band on rounding noise.
    """

    rel: float = 0.10          #: relative band for phase seconds
    abs_s: float = 5e-3        #: absolute floor [sim s] for phase seconds
    quantile_rel: float = 0.10 #: relative band for SLO p50/p95/p99
    attainment_abs: float = 1e-9  #: attainment fractions are exact ratios


@dataclass
class SentryReport:
    """The regressions one sentry pass found."""

    regressions: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = []
        if self.regressions:
            lines.append(f"REGRESSIONS ({len(self.regressions)}):")
            lines.extend(f"  - {r}" for r in self.regressions)
        else:
            lines.append("sentry: no regressions against baseline")
        return "\n".join(lines)


# ------------------------------------------------------------ measuring
def measure(
    data: str = "engine",
    workers: int = 4,
    repeats: int = 3,
    commands: list[tuple[str, dict]] | None = None,
    session_factory: Callable[[], Any] | None = None,
    tracker: SLOTracker | None = None,
) -> dict[str, Any]:
    """Run the sentry workload and collect every gated quantity.

    One fresh session, each command executed ``repeats`` times in
    order (first pass cold, later passes warm — both phases matter:
    regressions can hide in either).  Returns a plain-JSON dict:
    fingerprints, per-phase critical-path seconds, coverage, and the
    SLO rollup, all in simulated time.
    """
    from ..faults.chaos import trace_fingerprint

    # The cluster-DMS cell only makes sense on the stock sentry
    # workload; explicit commands/session_factory (tests, ad-hoc runs)
    # keep the exact shape they asked for.
    include_cluster = commands is None and session_factory is None
    if session_factory is not None:
        session = session_factory()
    else:
        session = paper_session(data, workers)
    tracker = tracker if tracker is not None else SLOTracker(default_slos())
    commands = commands if commands is not None else SENTRY_COMMANDS
    per_command: dict[str, Any] = {}
    for name, params in commands:
        fingerprints: list[str] = []
        runtimes: list[float] = []
        latencies: list[float] = []
        phase_seconds = {p: 0.0 for p in PHASES}
        coverage = 1.0
        for _ in range(max(repeats, 1)):
            result = session.run(name, params=dict(params))
            fingerprints.append(trace_fingerprint(result))
            runtimes.append(result.total_runtime)
            latencies.append(result.latency)
            report = analyze_result(result)
            # Keep the repeat furthest from 1: over- and under-counting
            # are both attribution bugs.
            coverage = max(coverage, report.coverage, key=lambda c: abs(c - 1))
            for phase, seconds in report.phase_seconds.items():
                phase_seconds[phase] += seconds
            publish_phase_metrics(session.metrics, report)
            tracker.observe_result(result)
        per_command[name] = {
            "fingerprints": fingerprints,
            "runtime_seconds": runtimes,
            "latency_seconds": latencies,
            "phase_seconds": phase_seconds,
            "coverage": coverage,
        }
    if include_cluster:
        per_command["cluster-iso-concurrent"] = _measure_cluster_cell(
            data, workers
        )
        per_command["progressive-ttfa"] = _measure_ttfa_cell(data, workers)
        per_command["dynamic-schedule"] = _measure_dynamic_cell(data, workers)
    slo_rollup: dict[str, Any] = {}
    for st in tracker.status("command"):
        slo_rollup.setdefault(st.slo.name, {})[st.key] = {
            "total": st.total,
            "good": st.good,
            "attainment": st.attainment,
            "p50": st.p50,
            "p95": st.p95,
            "p99": st.p99,
            "burn_rate": st.burn_rate if math.isfinite(st.burn_rate) else None,
        }
    tracker.publish_metrics(session.metrics)
    return {
        "suite": "slo-sentry",
        "dataset": data,
        "workers": workers,
        "repeats": repeats,
        "commands": per_command,
        "slo": slo_rollup,
        "_session": session,   # stripped before serialization
        "_tracker": tracker,
    }


def _measure_cluster_cell(data: str, workers: int) -> dict[str, Any]:
    """One cluster-scale DMS cell: two concurrent tenants over shared
    timesteps with cluster dedup, contention-aware selection, and ZSTD
    wire compression on.  Gated like any other sentry cell —
    fingerprints exactly, phase seconds (including the new dedup wire
    pulls and codec time) within tolerance bands.
    """
    from ..dms.compression import ZSTD_2020
    from ..dms.proxy import DMSConfig
    from ..faults.chaos import trace_fingerprint

    session = paper_session(data, workers, dms_config=DMSConfig(
        cluster_dedup=True, contention_aware=True, compression=ZSTD_2020
    ))
    group = max(1, workers // 2)
    results = session.run_concurrent([
        {
            "command": "iso-dataman",
            "params": {
                "isovalue": -0.3, "scalar": "pressure", "time_range": (0, 2),
            },
            "group_size": group,
            "tenant": tenant,
        }
        for tenant in ("tenant-a", "tenant-b")
    ])
    # The batch shares one span slice covering every request; analyze
    # it once, over the whole batch, so phase seconds are not
    # double-counted and coverage divides by the slice's own length.
    report = analyze_spans(
        results[0].spans,
        command=results[0].command,
        wall=max(r.total_runtime for r in results),
    )
    phase_seconds = {p: 0.0 for p in PHASES}
    phase_seconds.update(report.phase_seconds)
    agg = session.scheduler.aggregate_dms_stats()
    server = session.scheduler.server
    return {
        "fingerprints": [trace_fingerprint(r) for r in results],
        "runtime_seconds": [r.total_runtime for r in results],
        "latency_seconds": [r.latency for r in results],
        "phase_seconds": phase_seconds,
        "coverage": report.coverage,
        "dedup_followers": server.dedup_followers,
        "dedup_load_seconds": agg.load_seconds_by_strategy.get(
            "dedup-follow", 0.0
        ),
        "compression_codec_seconds": agg.compression_seconds,
        "compression_decisions": dict(sorted(agg.compression_decisions.items())),
    }


def _measure_ttfa_cell(data: str, workers: int) -> dict[str, Any]:
    """One progressive-streaming cell: time-to-first-approximation under
    the level-major vs the depth-first ``traversal``, in simulated
    seconds.

    Each traversal gets a fresh session and runs the command twice: a
    cold pass (loads dominate both traversals equally) and a warm pass
    at a *new isovalue* — the paper's interactive re-extraction, where
    cached pyramids make the coarse pass nearly free and the traversal
    is the whole difference.  ``base_resolution=8`` keeps the blocks
    coarsenable (3+ pyramid levels); at the stock sentry resolution the
    pyramid degenerates to a single level and the traversals coincide.
    The cell is gated directionally in :func:`compare`: the warm
    speedup over depth-first has a floor, so a regression
    back toward depth-first behavior flips ``repro slo --check`` to
    exit 1.
    """
    from ..faults.chaos import trace_fingerprint

    params = {
        "isovalue": -0.3,
        "scalar": "pressure",
        "time_range": (0, 1),
        "max_levels": 4,
    }
    fingerprints: list[str] = []
    ttfa: dict[str, dict[str, float]] = {}
    for traversal in ("level-major", "depth-first"):
        session = paper_session(data, workers, resolution=8, timesteps=1)
        cold = session.run(
            "iso-progressive", params=dict(params, traversal=traversal)
        )
        warm = session.run(
            "iso-progressive",
            params=dict(params, traversal=traversal, isovalue=-0.1),
        )
        fingerprints.extend([trace_fingerprint(cold), trace_fingerprint(warm)])
        ttfa[traversal] = {"cold": cold.ttfa_s, "warm": warm.ttfa_s}
    level_major = ttfa["level-major"]["warm"]
    depth_first = ttfa["depth-first"]["warm"]
    return {
        "fingerprints": fingerprints,
        "ttfa_cold_level_major_s": ttfa["level-major"]["cold"],
        "ttfa_cold_depth_first_s": ttfa["depth-first"]["cold"],
        "ttfa_level_major_s": level_major,
        "ttfa_depth_first_s": depth_first,
        "ttfa_speedup": (depth_first / level_major) if level_major > 0 else None,
    }


def _measure_dynamic_cell(data: str, workers: int) -> dict[str, Any]:
    """One dynamic-scheduling cell: static vs work-stealing, in
    simulated seconds.

    Each schedule gets a fresh session and runs iso extraction twice: a
    cold pass (fileserver-bound — every block pays its compulsory load,
    so all schedules are bottlenecked alike) and a warm pass at a new
    isovalue — the interactive re-extraction loop, where cached blocks
    make compute the whole story and the static split's fraction-driven
    imbalance is exactly what stealing erases.  ``base_resolution=8``
    gives the blocks enough cells for compute to dominate warm.

    Gated in :func:`compare`: runtimes and idle seconds within the
    tolerance bands, plus a *directional* floor on the warm speedup of
    dynamic over static — a scheduler regression that drifts back
    toward static tail latency flips ``repro slo --check`` to exit 1.
    """
    from ..core.commands import SCHEDULES
    from ..faults.chaos import trace_fingerprint

    base = {"scalar": "pressure", "time_range": (0, 1)}
    fingerprints: list[str] = []
    out: dict[str, Any] = {}
    for schedule in SCHEDULES:
        session = paper_session(data, workers, resolution=8, timesteps=1)
        params = dict(base)
        if schedule != "static":
            params["schedule"] = schedule
        cold = session.run(
            "iso-dataman", params=dict(params, isovalue=-0.3), group_size=workers
        )
        warm = session.run(
            "iso-dataman", params=dict(params, isovalue=-0.1), group_size=workers
        )
        fingerprints.extend([trace_fingerprint(cold), trace_fingerprint(warm)])
        record = session.scheduler.history[-1]
        out[f"cold_{schedule}_s"] = session.scheduler.history[-2].runtime
        out[f"warm_{schedule}_s"] = record.runtime
        out[f"idle_{schedule}_s"] = record.idle_seconds
        out[f"steals_{schedule}"] = record.steals
    warm_static = out["warm_static_s"]
    warm_dynamic = out["warm_dynamic_s"]
    out["fingerprints"] = fingerprints
    out["dynamic_speedup"] = (
        (warm_static / warm_dynamic) if warm_dynamic > 0 else None
    )
    return out


def strip_runtime(current: dict[str, Any]) -> dict[str, Any]:
    """Drop the live session/tracker handles for JSON serialization."""
    return {k: v for k, v in current.items() if not k.startswith("_")}


# ------------------------------------------------------------ comparing
def _close(base: float, now: float, rel: float, abs_floor: float) -> bool:
    return abs(now - base) <= max(rel * abs(base), abs_floor)


def compare(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tol: Tolerance | None = None,
) -> list[str]:
    """Regression messages (empty = clean) for current vs baseline."""
    tol = tol or Tolerance()
    problems: list[str] = []
    base_cmds = baseline.get("commands", {})
    cur_cmds = current.get("commands", {})
    for name, base in base_cmds.items():
        cur = cur_cmds.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
            continue
        if cur["fingerprints"] != base["fingerprints"]:
            problems.append(
                f"{name}: trace fingerprint drift — simulated behavior "
                "changed (golden pins would catch the same run)"
            )
        if "ttfa_level_major_s" in base:
            # Progressive-TTFA cell: band the simulated seconds, and gate
            # the speedup *directionally* — falling back toward
            # depth-first TTFA is a regression even if everything else
            # stayed inside its band.
            for key in (
                "ttfa_cold_level_major_s",
                "ttfa_cold_depth_first_s",
                "ttfa_level_major_s",
                "ttfa_depth_first_s",
            ):
                if key not in base:
                    continue
                b, c = base[key], cur.get(key, 0.0)
                if not _close(b, c, tol.rel, tol.abs_s):
                    problems.append(
                        f"{name}: {key} moved {b:.6f}s -> {c:.6f}s "
                        f"(tolerance ±{tol.rel:.0%} / {tol.abs_s}s)"
                    )
            b = base.get("ttfa_speedup") or 0.0
            c = cur.get("ttfa_speedup") or 0.0
            if c < b * (1.0 - tol.rel):
                problems.append(
                    f"{name}: TTFA speedup over depth-first fell "
                    f"{b:.2f}x -> {c:.2f}x (floor {b * (1.0 - tol.rel):.2f}x)"
                )
            continue
        if "dynamic_speedup" in base:
            # Dynamic-scheduling cell: band the simulated runtimes and
            # idle seconds, and gate the warm dynamic-over-static
            # speedup *directionally* — stealing regressing toward
            # static tail latency is a failure even inside the bands.
            for key, value in base.items():
                if not (key.endswith("_s") or key.startswith("steals_")):
                    continue
                b, c = float(value), float(cur.get(key, 0.0))
                if not _close(b, c, tol.rel, tol.abs_s):
                    problems.append(
                        f"{name}: {key} moved {b:.6f} -> {c:.6f} "
                        f"(tolerance ±{tol.rel:.0%} / {tol.abs_s})"
                    )
            b = base.get("dynamic_speedup") or 0.0
            c = cur.get("dynamic_speedup") or 0.0
            if c < b * (1.0 - tol.rel):
                problems.append(
                    f"{name}: warm dynamic-over-static speedup fell "
                    f"{b:.2f}x -> {c:.2f}x (floor {b * (1.0 - tol.rel):.2f}x)"
                )
            continue
        for phase in PHASES:
            b = base["phase_seconds"].get(phase, 0.0)
            c = cur["phase_seconds"].get(phase, 0.0)
            if not _close(b, c, tol.rel, tol.abs_s):
                problems.append(
                    f"{name}: phase {phase!r} moved {b:.6f}s -> {c:.6f}s "
                    f"(tolerance ±{tol.rel:.0%} / {tol.abs_s}s)"
                )
        coverage = cur.get("coverage", 0.0)
        if abs(coverage - 1.0) > 1e-9:
            problems.append(
                f"{name}: critical-path coverage {coverage!r} != 1 "
                "(the attribution double-counts or misses wall time)"
            )
        # Cluster-cell extras (dedup wire seconds, codec seconds) ride
        # the same tolerance bands as phase seconds.
        for key in ("dedup_load_seconds", "compression_codec_seconds"):
            if key in base:
                b, c = base[key], cur.get(key, 0.0)
                if not _close(b, c, tol.rel, tol.abs_s):
                    problems.append(
                        f"{name}: {key} moved {b:.6f}s -> {c:.6f}s "
                        f"(tolerance ±{tol.rel:.0%} / {tol.abs_s}s)"
                    )
    for slo_name, base_rollup in baseline.get("slo", {}).items():
        cur_rollup = current.get("slo", {}).get(slo_name, {})
        for key, base_cell in base_rollup.items():
            cur_cell = cur_rollup.get(key)
            if cur_cell is None:
                problems.append(f"slo {slo_name}/{key}: missing from current run")
                continue
            if abs(cur_cell["attainment"] - base_cell["attainment"]) > tol.attainment_abs:
                problems.append(
                    f"slo {slo_name}/{key}: attainment "
                    f"{base_cell['attainment']:.3f} -> {cur_cell['attainment']:.3f}"
                )
            for q in ("p50", "p95", "p99"):
                if not _close(base_cell[q], cur_cell[q], tol.quantile_rel, tol.abs_s):
                    problems.append(
                        f"slo {slo_name}/{key}: {q} moved "
                        f"{base_cell[q]:.6f}s -> {cur_cell[q]:.6f}s"
                    )
    return problems


# ------------------------------------------------------------- baseline
def load_baseline(path: str) -> dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def write_baseline(path: str, current: dict[str, Any]) -> None:
    import platform

    doc = strip_runtime(current)
    doc["machine"] = platform.platform()
    doc["python"] = platform.python_version()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
