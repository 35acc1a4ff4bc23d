"""Tests for the bar-chart renderer."""

import pytest

from repro.bench import ExperimentResult
from repro.__main__ import main as cli_main
from repro.bench.figures import format_barchart


def result():
    r = ExperimentResult("figX", "demo", ["workers", "A", "B"], notes="n")
    r.rows.append({"workers": 1, "A": 10.0, "B": 5.0})
    r.rows.append({"workers": 2, "A": 6.0, "B": 3.0})
    return r


def test_barchart_scales_to_peak():
    text = format_barchart(result(), width=40)
    lines = [l for l in text.split("\n") if "#" in l]
    assert len(lines) == 4
    # The peak value (A=10) gets the full width.
    assert "#" * 40 in lines[0]
    # B=5 gets half of it.
    assert "#" * 20 in lines[1] and "#" * 21 not in lines[1]


def test_barchart_groups_by_label():
    text = format_barchart(result())
    assert text.count("| A") == 2
    assert "1 |" in text and "2 |" in text
    assert "note: n" in text


def test_barchart_value_columns_subset():
    text = format_barchart(result(), value_columns=["B"])
    assert "| A" not in text
    assert text.count("| B") == 2


def test_barchart_no_numeric_columns():
    r = ExperimentResult("x", "t", ["name", "verdict"])
    r.rows.append({"name": "a", "verdict": "good"})
    with pytest.raises(ValueError):
        format_barchart(r)


def test_barchart_empty_rows():
    r = ExperimentResult("x", "t", ["a"])
    assert "(no rows)" in format_barchart(r)


def test_figures_cli_table1_and_unknown(capsys):
    assert cli_main(["figures", "table1"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert cli_main(["figures", "figXXL"]) == 2
    out = capsys.readouterr().out
    assert "unknown experiments ['figXXL']" in out
    assert out.rstrip().endswith("usage: python -m repro figures [fig6 ...]")
