"""Bar-chart rendering of experiment results.

The paper presents Figures 6-14 as grouped horizontal bar charts
(series per command, one group per worker count).  This module renders
the reproduced results in the same visual form, in plain text::

    == fig6: Engine, Isosurface, total runtime [s] ==
         1 | SimpleIso    ################################  34.8
           | ViewerIso    ########################          26.0
           | IsoDataMan   ###############                   16.8
         2 | ...

Use ``python -m repro figures fig6 fig12`` or
:func:`format_barchart` directly.
"""

from __future__ import annotations

from typing import Sequence

from .experiments import ExperimentResult

__all__ = ["format_barchart"]

_BAR = "#"


def format_barchart(
    result: ExperimentResult,
    value_columns: Sequence[str] | None = None,
    label_column: str | None = None,
    width: int = 44,
) -> str:
    """Render numeric columns of ``result`` as grouped horizontal bars.

    ``label_column`` defaults to the first column; ``value_columns`` to
    every numeric column after it.
    """
    if not result.rows:
        return f"== {result.experiment_id}: {result.title} ==\n(no rows)"
    columns = list(result.columns)
    label_column = label_column or columns[0]
    if value_columns is None:
        value_columns = [
            c
            for c in columns
            if c != label_column
            and isinstance(result.rows[0].get(c), (int, float))
        ]
    if not value_columns:
        raise ValueError("no numeric columns to chart")
    peak = max(
        abs(float(row[c]))
        for row in result.rows
        for c in value_columns
        if row.get(c) is not None
    )
    if peak <= 0:
        peak = 1.0
    name_w = max(len(c) for c in value_columns)
    label_w = max(len(str(row[label_column])) for row in result.rows)
    lines = [f"== {result.experiment_id}: {result.title} =="]
    for row in result.rows:
        label = str(row[label_column])
        for i, column in enumerate(value_columns):
            value = float(row[column])
            bar = _BAR * max(1, round(abs(value) / peak * width)) if value else ""
            shown_label = label if i == 0 else ""
            lines.append(
                f"{shown_label:>{label_w}} | {column:<{name_w}}  "
                f"{bar:<{width}}  {value:.2f}"
            )
        lines.append(f"{'':>{label_w}} |")
    if result.notes:
        lines.append(f"   note: {result.notes}")
    return "\n".join(lines)
