"""The paper's classification scheme for post-processing approaches (§1.3).

Figure 1 organizes assessment into four main categories, each with two
criteria; "the four main categories can heavily depend on each other".
This module reproduces that taxonomy as data and provides the
assessment of every built-in command along it — the scheme the authors
"use to assess both standard extraction algorithms and versions
extended by streaming capabilities".
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Criterion",
    "Category",
    "TAXONOMY",
    "CommandAssessment",
    "format_taxonomy",
]


@dataclass(frozen=True)
class Criterion:
    name: str
    #: concrete techniques the paper lists under this criterion.
    techniques: tuple[str, ...] = ()


@dataclass(frozen=True)
class Category:
    name: str
    criteria: tuple[Criterion, ...]


#: Figure 1: "General classification and assessment of post-processing
#: approaches".
TAXONOMY: tuple[Category, ...] = (
    Category(
        "Speed-Up",
        (
            Criterion(
                "Reducing Total Run-Time",
                (
                    "Renunciation of Accuracy",
                    "Advanced Data Structures",
                    "Pre-Processing",
                ),
            ),
            Criterion(
                "Reducing Latency Time",
                ("Streaming", "Progressive Computation"),
            ),
        ),
    ),
    Category(
        "Space Requirement",
        (
            Criterion(
                "Reducing Main Memory Consumption",
                ("Out of Core Schemes",),
            ),
            Criterion(
                "Reducing Offline Storage Consumption",
                ("Compression", "Avoiding Meta Data"),
            ),
        ),
    ),
    Category(
        "User Acceptance",
        (
            Criterion(
                "Subjective Criteria",
                ("Subjective Speed-Up Sensation",),
            ),
            Criterion(
                "Intuitive Utilization",
                ("Steering by Simple Parameters",),
            ),
        ),
    ),
    Category(
        "General Feasibility",
        (
            Criterion("Computability Criteria"),
            Criterion("Task Complexity"),
        ),
    ),
)


@dataclass(frozen=True)
class CommandAssessment:
    """Where one command sits in the Figure 1 scheme."""

    command: str
    #: does it attack total runtime (DMS, parallelization)?
    reduces_total_runtime: bool
    #: does it attack latency (streaming / progressive)?
    reduces_latency: bool
    #: techniques employed, by Figure 1 names.
    techniques: tuple[str, ...]
    #: steering parameters the user adjusts (intuitive utilization).
    parameters: tuple[str, ...]
    notes: str = ""


_ASSESSMENTS: dict[str, CommandAssessment] = {}


def _register(assessment: CommandAssessment) -> None:
    _ASSESSMENTS[assessment.command] = assessment


_register(CommandAssessment(
    "iso-simple", False, False, (),
    ("isovalue", "scalar"),
    "baseline: no data management, single final package",
))
_register(CommandAssessment(
    "iso-dataman", True, False,
    ("Advanced Data Structures",),
    ("isovalue", "scalar"),
    "DMS caching/prefetching attacks the total runtime",
))
_register(CommandAssessment(
    "iso-viewer", True, True,
    ("Advanced Data Structures", "Streaming"),
    ("isovalue", "scalar", "viewpoint", "max_triangles"),
    "BSP front-to-back traversal + triangle-batch streaming",
))
_register(CommandAssessment(
    "iso-progressive", True, True,
    ("Advanced Data Structures", "Streaming", "Progressive Computation",
     "Renunciation of Accuracy"),
    ("isovalue", "scalar", "max_levels"),
    "coarse levels trade accuracy for immediate feedback (§5.3)",
))
_register(CommandAssessment(
    "vortex-simple", False, False, (),
    ("threshold",),
    "baseline λ2 extraction",
))
_register(CommandAssessment(
    "vortex-dataman", True, False,
    ("Advanced Data Structures",),
    ("threshold",),
    "DMS-backed batch λ2",
))
_register(CommandAssessment(
    "vortex-streamed", True, True,
    ("Advanced Data Structures", "Streaming"),
    ("threshold", "batch_cells"),
    "slab-wise λ2 with active-cell batch streaming",
))
_register(CommandAssessment(
    "pathlines-simple", False, False, (),
    ("seeds", "rtol"),
    "baseline particle tracing",
))
_register(CommandAssessment(
    "pathlines-dataman", True, False,
    ("Advanced Data Structures",),
    ("seeds", "rtol"),
    "Markov prefetching overlaps I/O with integration; progressive "
    "computation is infeasible for traces (§5.3)",
))
_register(CommandAssessment(
    "streaklines", True, False,
    ("Advanced Data Structures",),
    ("seeds", "n_particles", "t_observe"),
    "same feasibility limits as pathlines",
))
_register(CommandAssessment(
    "cutplane", True, False,
    ("Advanced Data Structures",),
    ("normal", "offset"),
    "reuses the isosurface machinery on a distance field",
))
_register(CommandAssessment(
    "cutplane-streamed", True, True,
    ("Advanced Data Structures", "Streaming"),
    ("normal", "offset"),
    "block-by-block data-reorganization streaming (§5.1)",
))


def all_assessments() -> list[CommandAssessment]:
    return [_ASSESSMENTS[k] for k in sorted(_ASSESSMENTS)]


def format_taxonomy() -> str:
    """Render Figure 1's tree as text."""
    lines = ["General classification of post-processing approaches (Fig. 1)"]
    for cat in TAXONOMY:
        lines.append(f"+- {cat.name}")
        for crit in cat.criteria:
            lines.append(f"|  +- {crit.name}")
            for tech in crit.techniques:
                lines.append(f"|  |  - {tech}")
    return "\n".join(lines)
