"""CLI tests for the trace/stats verbs and per-verb usage lines."""

import json
import re

import pytest

from repro.__main__ import USAGE, main as cli_main


def test_every_documented_verb_has_help(capsys):
    for verb in USAGE:
        assert cli_main([verb, "--help"]) == 0, verb
        out = capsys.readouterr().out
        assert out.startswith("usage: python -m repro " + verb.split()[0])


def test_usage_covers_trace_and_stats():
    import repro.__main__ as entry

    assert "trace" in USAGE
    assert "stats" in USAGE
    assert "python -m repro trace" in entry.__doc__
    assert "python -m repro stats" in entry.__doc__


def test_trace_exports_chrome_json(tmp_path, capsys):
    out_path = tmp_path / "run.json"
    assert cli_main(["trace", "iso", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "spans" in out
    assert str(out_path) in out
    doc = json.loads(out_path.read_text())
    cats = {e.get("cat") for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert cats >= {"load", "compute", "merge", "stream-packet"}
    lanes = {e["pid"] for e in doc["traceEvents"] if e.get("cat") == "worker"}
    assert len(lanes) >= 2


def test_trace_timeline_flag(tmp_path, capsys):
    out_path = tmp_path / "run.json"
    assert cli_main(
        ["trace", "iso", "--out", str(out_path), "--timeline"]
    ) == 0
    out = capsys.readouterr().out
    assert "legend:" in out
    assert "node 0 (sched)" in out


def test_trace_rejects_unknown_command(capsys):
    assert cli_main(["trace", "nope"]) == 2
    assert cli_main(["trace"]) == 2
    assert cli_main(["trace", "iso", "--data", "mars"]) == 2
    assert cli_main(["trace", "iso", "--out"]) == 2  # flag missing value


def test_stats_prints_metrics_table(capsys):
    assert cli_main(["stats", "vortex", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "cache hit rate:" in out
    assert "prefetch accuracy:" in out
    assert "viracocha_dms_hit_rate" in out
    assert "viracocha_command_latency_seconds" in out
    assert "prefetcher" in out
    assert "ring high-water" in out


def test_stats_prometheus_exposition(capsys):
    assert cli_main(["stats", "iso", "--prometheus"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE viracocha_dms_requests_total counter" in out
    assert "# TYPE viracocha_dms_hit_rate gauge" in out
    assert "viracocha_command_runtime_seconds_bucket" in out
    assert "# TYPE viracocha_spans_dropped_total counter" in out
    assert "# TYPE viracocha_span_ring_high_water gauge" in out


def test_stats_rejects_unknown_command(capsys):
    assert cli_main(["stats", "nope"]) == 2
    assert cli_main(["stats"]) == 2


def test_workers_flag_validation(capsys):
    assert cli_main(["trace", "iso", "--workers", "abc"]) == 2
    assert cli_main(["stats", "iso", "--workers", "0"]) == 2
    assert "--workers must be a positive integer" in capsys.readouterr().out


@pytest.mark.parametrize("alias", ["iso", "vortex", "pathlines", "cutplane"])
def test_aliases_resolve(alias):
    from repro.commands import DEMO_ALIASES, DEMO_PARAMS, default_registry

    name = DEMO_ALIASES[alias]
    assert name in default_registry().names()
    assert DEMO_PARAMS[name]


def test_all_registry_commands_have_obs_defaults():
    from repro.commands import DEMO_PARAMS, default_registry

    assert set(DEMO_PARAMS) == set(default_registry().names())
    assert all(isinstance(p, dict) for p in DEMO_PARAMS.values())


def test_critical_path_prints_phase_table(capsys):
    assert cli_main(["critical-path", "iso", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "critical path: iso-dataman" in out
    assert "coverage" in out and "dominant:" in out
    for phase in ("queue", "load_disk", "load_wire", "compute",
                  "merge", "stream", "recovery"):
        assert phase in out


def test_critical_path_warm_and_path_flags(capsys):
    assert cli_main(
        ["critical-path", "cutplane", "--workers", "2", "--warm", "--path"]
    ) == 0
    out = capsys.readouterr().out
    assert "top critical-path segments" in out


def test_critical_path_rejects_bad_arguments(capsys):
    assert cli_main(["critical-path"]) == 2
    assert cli_main(["critical-path", "nope"]) == 2
    assert cli_main(["critical-path", "iso", "--data", "mars"]) == 2
    assert cli_main(["critical-path", "iso", "--workers", "0"]) == 2


def test_profile_prints_hotspots(capsys):
    assert cli_main(["profile", "iso", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "warm pass, top 5 by cumulative" in out
    assert "cumulative time" in out
    assert "function calls" in out
    # pstats restriction actually applied and paths stripped to basenames
    assert "restriction <5>" in out
    assert "session.py" in out


def test_profile_cold_and_tottime_flags(capsys):
    assert cli_main(["profile", "iso", "--cold", "--sort", "tottime"]) == 0
    out = capsys.readouterr().out
    assert "cold pass" in out
    assert "internal time" in out


@pytest.mark.parametrize("passes", ["warm", "cold"])
def test_profile_executor_merges_every_workers_profile(capsys, passes):
    """The real path: the workers' stats merged into the parent's count
    one isosurface kernel call per loaded block.  Cold, the pool forks
    while the parent profiles, and each worker still profiles itself."""
    args = ["profile", "iso", "--executor", "process", "--workers", "2",
            "--sort", "tottime", "--top", "500"]
    assert cli_main(args + (["--cold"] if passes == "cold" else [])) == 0
    out = capsys.readouterr().out
    assert f"(process executor, 2 workers, {passes} pass, top 500 by tottime)" in out
    assert "internal time" in out
    assert "wall time:" in out
    loaded = int(re.search(r"loaded (\d+) of \d+ blocks", out).group(1))
    calls = re.search(r"^\s*(\d+) .*\(extract_block_isosurface\)$", out, re.M)
    assert loaded > 0 and int(calls.group(1)) == loaded


def test_profile_rejects_bad_arguments(capsys):
    assert cli_main(["profile"]) == 2
    assert cli_main(["profile", "nope"]) == 2
    assert cli_main(["profile", "iso", "--sort", "calls"]) == 2
    assert cli_main(["profile", "iso", "--top", "0"]) == 2
    assert cli_main(["profile", "iso", "--top", "abc"]) == 2
    assert cli_main(["profile", "iso", "--workers", "0"]) == 2
