"""The perf regression sentry: measure, compare, and the CI gate.

The headline test injects a regression (one phase's simulated cost
inflated through the cost model) and asserts ``repro slo --check``
exits nonzero against a clean baseline, while the unmodified run
passes — the sentry demonstrably catches what it is built to catch.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.obs import sentry

#: one fast command keeps sentry runs cheap; the phase/SLO machinery
#: is identical across commands.
FAST = [("cutplane", {"normal": (0.0, 0.0, 1.0), "offset": 0.8,
                      "time_range": (0, 1)})]


def _measure(**kw):
    kw.setdefault("data", "engine")
    kw.setdefault("workers", 2)
    kw.setdefault("repeats", 1)
    kw.setdefault("commands", FAST)
    return sentry.measure(**kw)


def _inflated_session():
    """The sentry session with command setup made 50x more expensive —
    a queue-phase regression every command pays."""
    from repro.bench.calibration import paper_cluster, paper_costs
    from repro.core.session import ViracochaSession
    from tests.conftest import cached_engine

    costs = dataclasses.replace(
        paper_costs(), command_setup=paper_costs().command_setup * 50,
    )
    return ViracochaSession(
        cached_engine(4, 2), cluster_config=paper_cluster(2), costs=costs,
    )


@pytest.fixture(scope="module")
def clean_measurement():
    return _measure()


def test_measure_shape(clean_measurement):
    m = clean_measurement
    assert m["suite"] == "slo-sentry"
    entry = m["commands"]["cutplane"]
    assert len(entry["fingerprints"]) == 1
    assert entry["coverage"] >= 0.95
    assert sum(entry["phase_seconds"].values()) > 0
    assert "interactive-response" in m["slo"]
    # The stripped form is plain JSON.
    json.dumps(sentry.strip_runtime(m))


def test_identical_runs_compare_clean(clean_measurement):
    again = _measure()
    assert sentry.compare(clean_measurement, again) == []
    # Simulated time is bit-deterministic: fingerprints match exactly.
    assert (
        again["commands"]["cutplane"]["fingerprints"]
        == clean_measurement["commands"]["cutplane"]["fingerprints"]
    )


def test_injected_regression_is_caught(clean_measurement):
    bad = _measure(session_factory=_inflated_session)
    problems = sentry.compare(clean_measurement, bad)
    assert problems, "50x setup cost must not pass the sentry"
    text = "\n".join(problems)
    assert "fingerprint" in text
    assert "queue" in text


def test_compare_flags_missing_command(clean_measurement):
    current = {"commands": {}, "slo": {}}
    problems = sentry.compare(clean_measurement, current)
    assert any("missing" in p for p in problems)


def test_compare_flags_low_coverage(clean_measurement):
    import copy

    bad = copy.deepcopy(sentry.strip_runtime(clean_measurement))
    bad["commands"]["cutplane"]["coverage"] = 0.5
    problems = sentry.compare(clean_measurement, bad)
    assert any("coverage" in p for p in problems)
    # Over-attribution (a double-counted interval) is as wrong as a gap.
    bad["commands"]["cutplane"]["coverage"] = 1.015832555483167
    problems = sentry.compare(clean_measurement, bad)
    assert any("coverage" in p for p in problems)


def test_tolerance_bands_absorb_float_noise(clean_measurement):
    import copy

    wiggled = copy.deepcopy(sentry.strip_runtime(clean_measurement))
    for phase in wiggled["commands"]["cutplane"]["phase_seconds"]:
        wiggled["commands"]["cutplane"]["phase_seconds"][phase] *= 1.0 + 1e-9
    assert sentry.compare(clean_measurement, wiggled) == []


def test_baseline_round_trip(tmp_path, clean_measurement):
    path = tmp_path / "BENCH_TEST.json"
    sentry.write_baseline(str(path), clean_measurement)
    loaded = sentry.load_baseline(str(path))
    assert "machine" in loaded and "python" in loaded
    assert "_session" not in loaded
    assert sentry.compare(loaded, clean_measurement) == []


# ------------------------------------------------------------------- CLI
def _slo_args(baseline, *extra):
    return [
        "slo", "--baseline", str(baseline), "--workers", "2",
        "--repeats", "1", *extra,
    ]


def test_cli_check_passes_then_catches_regression(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sentry, "SENTRY_COMMANDS", FAST)
    baseline = tmp_path / "BENCH_TEST.json"
    assert cli_main(_slo_args(baseline, "--update-baseline")) == 0
    capsys.readouterr()

    # Unmodified run: clean pass.
    assert cli_main(_slo_args(baseline, "--check")) == 0
    out = capsys.readouterr().out
    assert "no regressions" in out

    # Same baseline, command setup made 50x more expensive in the
    # calibrated cost model (a queue-phase regression every command
    # pays): nonzero exit + named phase.
    from repro.bench import calibration

    costs = calibration.paper_costs()
    inflated = dataclasses.replace(costs, command_setup=costs.command_setup * 50)
    monkeypatch.setattr(calibration, "paper_costs", lambda: inflated)
    assert cli_main(_slo_args(baseline, "--check")) == 1
    out = capsys.readouterr().out
    assert "REGRESSIONS" in out


def test_cli_check_without_baseline_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["slo", "--check", "--baseline", str(missing)]) == 2
    assert "not found" in capsys.readouterr().out


@pytest.mark.parametrize("verb, positional, flag, after", [
    ("slo", [], "jsn", "--check"),   # a typo used to swallow --check
    ("slo", [], "wall", "--check"),  # the deleted wall-clock leg
    ("critical-path", ["iso"], "wrkers", "2"),
])
def test_cli_rejects_unknown_flags(verb, positional, flag, after, capsys):
    assert cli_main([verb, *positional, f"--{flag}", after]) == 2
    out = capsys.readouterr().out
    assert "unknown option" in out
    assert f"usage: python -m repro {verb}" in out


def test_cli_json_emits_machine_readable(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sentry, "SENTRY_COMMANDS", FAST)
    assert cli_main(["slo", "--workers", "2", "--repeats", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["commands"]["cutplane"]["coverage"] >= 0.95


def test_committed_baseline_matches_fresh_run():
    """sentry_baseline.json stays honest: a fresh measurement compares
    clean."""
    path = Path(__file__).resolve().parents[2] / "sentry_baseline.json"
    baseline = sentry.load_baseline(str(path))
    current = sentry.measure(
        baseline["dataset"], workers=baseline["workers"],
        repeats=baseline["repeats"],
    )
    assert sentry.compare(baseline, current) == []
