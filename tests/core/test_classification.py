"""Tests for the Figure 1 classification scheme."""

from repro.commands import default_registry
from repro.core.classification import (
    TAXONOMY,
    all_assessments,
    format_taxonomy,
)


def test_taxonomy_has_four_categories_with_two_criteria_each():
    assert len(TAXONOMY) == 4
    names = [c.name for c in TAXONOMY]
    assert names == [
        "Speed-Up",
        "Space Requirement",
        "User Acceptance",
        "General Feasibility",
    ]
    for cat in TAXONOMY:
        assert len(cat.criteria) == 2


def test_figure1_techniques_present():
    flat = {
        tech
        for cat in TAXONOMY
        for crit in cat.criteria
        for tech in crit.techniques
    }
    for expected in (
        "Streaming",
        "Progressive Computation",
        "Out of Core Schemes",
        "Compression",
        "Pre-Processing",
        "Steering by Simple Parameters",
    ):
        assert expected in flat


def test_every_registered_command_is_assessed():
    assessed = {a.command for a in all_assessments()}
    assert set(default_registry().names()) <= assessed


def test_assessments_consistent_with_command_flags():
    registry = default_registry()
    for assessment in all_assessments():
        command = registry.create(assessment.command)
        if command.streaming:
            assert assessment.reduces_latency
            assert "Streaming" in assessment.techniques
        if command.use_dms:
            assert assessment.reduces_total_runtime


def test_simple_baselines_claim_nothing():
    by_name = {a.command: a for a in all_assessments()}
    for name in ("iso-simple", "vortex-simple", "pathlines-simple"):
        a = by_name[name]
        assert not a.reduces_total_runtime
        assert not a.reduces_latency
        assert a.techniques == ()


def test_format_taxonomy_renders_tree():
    text = format_taxonomy()
    assert "Speed-Up" in text
    assert "- Streaming" in text
    assert text.count("+-") >= 12  # 4 categories + 8 criteria


def test_steering_parameters_are_declared():
    """Figure 1's "steering by simple parameters" names only parameters
    the command declares."""
    registry = default_registry()
    for assessment in all_assessments():
        declared = registry.command_class(assessment.command).declaration()
        assert set(assessment.parameters) <= set(declared), assessment.command
