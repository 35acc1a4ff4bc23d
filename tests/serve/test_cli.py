"""CLI verbs: ``repro loadtest`` and ``repro serve`` argument handling."""

import inspect
import json
import re

import pytest

from repro.__main__ import USAGE, _VERBS, main


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def flags_read(handler):
    """The ``--flag`` names a verb handler looks up."""
    return set(re.findall(r'flags\.get\("([\w-]+)"', inspect.getsource(handler)))


class TestLoadtestVerb:
    def test_small_soak_with_replay(self, capsys):
        code, out = run_cli(
            ["loadtest", "--tenants", "40", "--seed", "7",
             "--requests", "2", "--replay"],
            capsys,
        )
        assert code == 0
        assert "40 tenants, seed 7" in out
        assert "100 ms criterion" in out
        assert "fingerprints identical" in out

    def test_json_output_and_artifact(self, tmp_path, capsys):
        out_file = tmp_path / "rollup.json"
        code, out = run_cli(
            ["loadtest", "--tenants", "25", "--seed", "3",
             "--requests", "2", "--json", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["n_tenants"] == 25
        assert doc["counts"]["submitted"] == 50
        assert json.loads(out_file.read_text()) == doc

    def test_equals_form_flags(self, capsys):
        code, out = run_cli(
            ["loadtest", "--tenants=10", "--seed=5", "--requests=1",
             "--arrival=bursty"],
            capsys,
        )
        assert code == 0
        assert "bursty arrivals" in out

    def test_bad_arrival_rejected(self, capsys):
        code, out = run_cli(["loadtest", "--arrival", "uniform"], capsys)
        assert code == 2
        assert "usage" in out

    def test_missing_flag_value_rejected(self, capsys):
        code, out = run_cli(["loadtest", "--tenants"], capsys)
        assert code == 2

    def test_positional_arg_rejected(self, capsys):
        code, out = run_cli(["loadtest", "surprise"], capsys)
        assert code == 2

    def test_help(self, capsys):
        code, out = run_cli(["loadtest", "--help"], capsys)
        assert code == 0
        assert "--tenants" in out

    def test_every_flag_loadtest_reads_is_accepted(self, tmp_path, capsys):
        args = [
            "loadtest", "--tenants", "6", "--seed", "2", "--requests", "1",
            "--rate", "0.5", "--arrival", "bursty", "--slots", "2",
            "--cancel-frac", "0.1", "--priority-frac", "0.5",
            "--max-in-flight", "1", "--replay", "--json",
            "--out", str(tmp_path / "rollup.json"),
        ]
        assert set(re.findall(r"--([\w-]+)", " ".join(args))) == flags_read(
            _VERBS["loadtest"]
        )
        code, out = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["spec"] == {
            "n_tenants": 6, "seed": 2, "requests_per_tenant": 1,
            "arrival": "bursty", "slots": 2,
        }


@pytest.mark.parametrize("verb", ["loadtest", "serve"])
def test_usage_lists_every_flag_the_verb_reads(verb):
    assert flags_read(_VERBS[verb]) == set(re.findall(r"\[--([\w-]+)", USAGE[verb]))


@pytest.mark.parametrize("args", [
    ["loadtest", "--tenant", "5"],
    ["serve", "--prot", "9000"],
])
def test_unknown_flag_exits_2(args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 2
    assert f"unknown option {args[1]!r}" in out
    assert out.rstrip().endswith(USAGE[args[0]])


class TestServeVerb:
    def test_bad_dataset_rejected(self, capsys):
        code, out = run_cli(["serve", "--data", "mars"], capsys)
        assert code == 2
        assert "--data must be one of engine|propfan, got 'mars'" in out

    def test_bad_port_rejected(self, capsys):
        code, out = run_cli(["serve", "--port", "http"], capsys)
        assert code == 2

    def test_nonpositive_workers_rejected(self, capsys):
        code, out = run_cli(["serve", "--workers", "0"], capsys)
        assert code == 2

    def test_help(self, capsys):
        code, out = run_cli(["serve", "--help"], capsys)
        assert code == 0
        assert "--port" in out


class TestBuildServeApp:
    def test_builds_session_backed_app(self):
        from repro.serve.cli import build_serve_app

        app = build_serve_app("engine", workers=2)
        status, payload = app.handle("GET", "/healthz", None)
        assert status == 200
        assert payload["tenants"] == 0
        status, payload = app.handle(
            "POST", "/v1/tenants", {"name": "vr", "lane": "interactive"}
        )
        assert status == 201
        cut = {"normal": [0.0, 0.0, 1.0], "offset": 0.8, "time_range": [0, 1]}
        status, payload = app.handle("POST", "/v1/commands", {
            "tenant": "vr", "command": "cutplane", "params": cut,
        })
        assert status == 200
        assert payload["state"] == "done"
        assert payload["runtime_s"] > 0
