"""Metrics: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per session unifies what used to be
scattered ad-hoc counters: the per-node :class:`~repro.dms.stats.DMSStatistics`
publish into it (labelled by node), the session observes command
latency and packet inter-arrival histograms, and the server publishes
strategy decisions — so ``python -m repro stats`` and benchmark
assertions read one coherent view.

Metric identity is ``(name, labels)``; the registry renders a
Prometheus-style text exposition (`render_prometheus`) and a plain
nested-dict snapshot (`snapshot`) for attaching to results.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "render_prometheus",
]

#: command-latency / runtime buckets in simulated seconds (paper's
#: evaluated range spans ~10 ms streaming latencies to ~100 s runtimes).
LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0,
)


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Metric:
    """Base: one (name, labels) series."""

    type_name = "untyped"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels

    def value_dict(self) -> dict[str, Any]:
        raise NotImplementedError


class Counter(Metric):
    """Monotonic count.

    ``set`` exists for *sync-publishing* cumulative sources (such as
    :class:`DMSStatistics`, which keeps its own totals); it refuses to
    move backwards so the series stays monotone.
    """

    type_name = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        super().__init__(name, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def set(self, value: float) -> None:
        if value < self.value:
            raise ValueError(
                f"counter {self.name} cannot decrease ({self.value} -> {value})"
            )
        self.value = value

    def value_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge(Metric):
    """A value that can go up and down (hit rate, accuracy, ...)."""

    type_name = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def value_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram(Metric):
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the rest.  Counts stored per bucket are *non*-cumulative internally
    and accumulated at exposition time.
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Iterable[float],
        labels: tuple[tuple[str, str], ...] = (),
    ):
        super().__init__(name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow (+Inf)
        self.total = 0.0
        self.n = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.n += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation within the covering bucket, matching
        Prometheus's ``histogram_quantile``: the first finite bucket
        interpolates from 0 (all recorded values are durations), and a
        quantile landing in the implicit ``+Inf`` overflow bucket is
        clamped to the highest finite bound — the histogram cannot say
        more than "beyond the last edge".  Returns ``nan`` when no
        observations have been recorded.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.n == 0:
            return math.nan
        rank = q * self.n
        running = 0
        for i, bound in enumerate(self.bounds):
            prev_running = running
            running += self.counts[i]
            if running >= rank:
                lower = self.bounds[i - 1] if i > 0 else min(0.0, bound)
                in_bucket = self.counts[i]
                if in_bucket == 0:  # rank == running == prev boundary
                    return lower
                frac = (rank - prev_running) / in_bucket
                return lower + (bound - lower) * frac
        # Overflow (+Inf) bucket: clamp to the highest finite bound.
        return self.bounds[-1]

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out

    def value_dict(self) -> dict[str, Any]:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.n,
        }


class MetricsRegistry:
    """Get-or-create home for all metric series."""

    def __init__(self):
        self._metrics: dict[tuple[str, tuple], Metric] = {}
        self._types: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # ----------------------------------------------------------- create
    def _get_or_create(
        self,
        cls,
        name: str,
        labels: Mapping[str, str] | None,
        help: str,
        **kwargs: Any,
    ):
        type_name = cls.type_name
        existing_type = self._types.get(name)
        if existing_type is not None and existing_type != type_name:
            raise TypeError(
                f"metric {name!r} already registered as {existing_type}, "
                f"not {type_name}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=key[1], **kwargs)
            self._metrics[key] = metric
            self._types[name] = type_name
            if help:
                self._help[name] = help
        return metric

    def counter(
        self, name: str, labels: Mapping[str, str] | None = None, help: str = ""
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(
        self, name: str, labels: Mapping[str, str] | None = None, help: str = ""
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = LATENCY_BUCKETS,
        labels: Mapping[str, str] | None = None,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    # ------------------------------------------------------------ query
    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted({name for name, _ in self._metrics})

    def series(self, name: str) -> list[Metric]:
        return [m for (n, _), m in sorted(self._metrics.items()) if n == name]

    def snapshot(self) -> dict[str, Any]:
        """Nested plain-data view: name -> [{labels, type, ...values}]."""
        out: dict[str, Any] = {}
        for (name, key), metric in sorted(self._metrics.items()):
            entry = {"labels": dict(key), "type": metric.type_name}
            entry.update(metric.value_dict())
            out.setdefault(name, []).append(entry)
        return out

    # -------------------------------------------------------- rendering
    def render_prometheus(self) -> str:
        return render_prometheus(self)

    def format_table(self, width: int = 40) -> str:
        """Human-readable table for ``python -m repro stats``."""
        lines: list[str] = []
        for name in self.names():
            series = self.series(name)
            kind = series[0].type_name
            if kind == "histogram":
                for metric in series:
                    label = _format_labels(metric.labels)
                    lines.append(f"{name}{label}  (histogram, n={metric.n}, "
                                 f"mean={metric.mean:.4g})")
                    peak = max(metric.counts) if any(metric.counts) else 1
                    for bound, count in zip(
                        [*metric.bounds, math.inf], metric.counts
                    ):
                        if count == 0:
                            continue
                        bar = "#" * max(1, round(width * count / peak))
                        edge = "+Inf" if bound == math.inf else f"{bound:g}"
                        lines.append(f"  <= {edge:>8s}  {count:6d}  {bar}")
            else:
                for metric in series:
                    label = _format_labels(metric.labels)
                    value = metric.value
                    shown = f"{value:.4g}" if isinstance(value, float) else str(value)
                    lines.append(f"{name}{label}  {shown}")
        return "\n".join(lines)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    lines: list[str] = []
    for name in registry.names():
        series = registry.series(name)
        help_text = registry._help.get(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {series[0].type_name}")
        for metric in series:
            label = _format_labels(metric.labels)
            if isinstance(metric, Histogram):
                for bound, cum in metric.cumulative():
                    le = "+Inf" if bound == math.inf else f"{bound:g}"
                    extra = (("," if metric.labels else "") + f'le="{le}"')
                    base = _format_labels(metric.labels)
                    if base:
                        bucket_labels = base[:-1] + extra + "}"
                    else:
                        bucket_labels = "{" + f'le="{le}"' + "}"
                    lines.append(f"{name}_bucket{bucket_labels} {cum}")
                lines.append(f"{name}_sum{label} {metric.total:g}")
                lines.append(f"{name}_count{label} {metric.n}")
            else:
                lines.append(f"{name}{label} {metric.value:g}")
    return "\n".join(lines) + "\n"
