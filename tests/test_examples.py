"""Smoke tests: the fast example scripts actually run.

The slower demos (Propfan sweeps, progressive streaming) are exercised
by the benchmark suite's equivalent code paths; here we execute the
quick ones end to end the way a user would.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "SimpleIso" in out
    assert "speed-up" in out
    assert "ok" in out  # frame-rate criterion satisfied


def test_concurrent_work_groups(capsys):
    out = run_example("concurrent_work_groups.py", capsys)
    for command in ("iso-viewer", "vortex-streamed", "vortex-dataman"):
        assert command in out
    assert out.count("(ok)") == 3  # frame-rate criterion, per result
    assert "+---" in out  # a rendered frame


def test_ondisk_workflow(capsys):
    out = run_example("ondisk_dataset_workflow.py", capsys)
    assert "matches framework: True" in out


def test_pressure_slices(capsys):
    out = run_example("pressure_slices.py", capsys)
    assert out.count("pressure on the cut") == 3
    assert "+---" in out  # a rendered frame
