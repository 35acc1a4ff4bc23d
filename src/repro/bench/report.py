"""Textual rendering of experiment results.

``python -m repro report`` regenerates every table and figure of the
paper's evaluation and prints them as aligned text tables (the series
the paper plots as bar charts).
"""

from __future__ import annotations

from typing import Iterable

from .experiments import ALL_EXPERIMENTS, ExperimentResult

__all__ = ["format_result", "run_all"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_result(result: ExperimentResult) -> str:
    """Render one experiment as an aligned text table."""
    header = [*result.columns]
    rows = [[_fmt(row.get(col, "")) for col in header] for row in result.rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [f"== {result.experiment_id}: {result.title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    if result.notes:
        lines.append(f"   note: {result.notes}")
    return "\n".join(lines)


def run_all(only: Iterable[str] | None = None) -> list[ExperimentResult]:
    """Execute (a subset of) the experiments and return their results."""
    names = list(only) if only else list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; known: {sorted(ALL_EXPERIMENTS)}")
    return [ALL_EXPERIMENTS[name]() for name in names]


def results_to_json(results: list[ExperimentResult]) -> str:
    """Machine-readable dump (CI trend tracking)."""
    import json

    payload = [
        {
            "experiment_id": r.experiment_id,
            "title": r.title,
            "columns": r.columns,
            "rows": r.rows,
            "notes": r.notes,
        }
        for r in results
    ]
    return json.dumps(payload, indent=2)
