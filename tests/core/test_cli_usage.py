"""Every ``repro`` verb is parsed from its ``USAGE`` line.

A bad command line exits 2 with the verb's usage line printed last, and
never with a traceback: an unknown flag, a flag missing its value, too
few or too many positionals, a bad integer and a bad choice, for each
verb that has one.
"""

import pytest

from repro.__main__ import USAGE, _VERBS, _parse, main as cli_main

#: per verb, argument lists that must be rejected.  ``D`` stands for a
#: fresh directory that must not be created.
CASES = {
    "report": [["--bogus"], ["--json"], ["fig99"], ["table1", "fig99"]],
    "figures": [["--bogus"], ["--json", "x"], ["figXXL"]],
    "ablations": [["--bogus"], ["nonsense"]],
    "commands": [["--bogus"], ["x"]],
    "taxonomy": [["--bogus"], ["x"]],
    "export": [
        ["--bogus"], [], ["engine"], ["engine", "D", "1", "3", "9"],
        ["engine", "D", "abc"], ["engine", "D", "1", "x"], ["warpcore", "D"],
    ],
    "info": [
        ["--bogus"], [], ["engine", "0", "1"], ["engine", "abc"],
        ["/missing/store"],
    ],
    "trace": [
        ["iso", "--bogus"], ["iso", "--out"], [], ["iso", "x"],
        ["iso", "--workers", "abc"], ["iso", "--workers", "0"],
        ["iso", "--data", "mars"], ["iso", "--dataset", "engine"], ["nope"],
        ["iso", "--timeline=yes"],
    ],
    "stats": [
        ["iso", "--bogus"], ["iso", "--workers"], [], ["iso", "x"],
        ["iso", "--workers", "2.5"], ["iso", "--data", "mars"], ["nope"],
    ],
    "profile": [
        ["iso", "--bogus"], ["iso", "--top"], [], ["iso", "x"],
        ["iso", "--top", "abc"], ["iso", "--top", "0"],
        ["iso", "--sort", "calls"], ["iso", "--data", "mars"], ["nope"],
        ["iso", "--executor", "threads"],
    ],
    "extract": [
        ["iso", "--bogus"], ["iso", "--flame"], [], ["iso", "x"],
        ["iso", "--workers", "abc"], ["iso", "--executor", "threads"],
        ["iso", "--schedule", "dynamic+pipeline"],
        ["iso", "--data", "/missing/store"], ["nope"],
    ],
    "critical-path": [
        ["iso", "--wrkers", "2"], ["iso", "--data"], [], ["iso", "x"],
        ["iso", "--workers", "abc"], ["iso", "--workers", "0"],
        ["iso", "--data", "mars"], ["nope"],
    ],
    "slo": [
        ["--jsn", "--check"], ["--baseline"], ["x"],
        ["--repeats", "abc"], ["--workers", "0"], ["--data", "mars"],
        ["--check", "--baseline", "/missing/baseline.json"],
    ],
    "loadtest": [
        ["--tenant", "5"], ["--tenants"], ["surprise"], ["--seed", "abc"],
        ["--rate", "fast"], ["--arrival", "uniform"], ["--tenants", "0"],
    ],
    "serve": [
        ["--prot", "9000"], ["--port"], ["x"], ["--port", "http"],
        ["--data", "mars"], ["--workers", "0"],
    ],
}


def test_every_verb_has_a_handler_and_error_cases():
    assert set(CASES) == set(USAGE) == set(_VERBS)


@pytest.mark.parametrize("verb, args", [
    pytest.param(verb, args, id=f"{verb} {' '.join(args)}".strip())
    for verb, cases in CASES.items()
    for args in cases
])
def test_bad_arguments_exit_2_with_usage_last(verb, args, tmp_path, capsys):
    target = tmp_path / "d"
    args = [str(target) if a == "D" else a for a in args]
    assert cli_main([verb, *args]) == 2
    lines = capsys.readouterr().out.rstrip().splitlines()
    assert len(lines) >= 2, lines  # a reason, then the usage line
    assert lines[-1] == f"usage: {USAGE[verb]}"
    assert not target.exists()


def test_parse_reads_the_usage_grammar():
    assert _parse("loadtest", ["--tenants=5", "--rate", "0.5", "--replay"]) == (
        [], {"tenants": 5, "rate": 0.5, "replay": True},
    )
    assert _parse("report", ["fig6", "--json", "out.json", "fig7"]) == (
        ["fig6", "fig7"], {"json": "out.json"},
    )
    assert _parse("export", ["propfan", "dir"]) == (["propfan", "dir"], {})
    assert _parse("extract", ["iso", "--data", "some/store"]) == (
        ["iso"], {"data": "some/store"},
    )


def test_usage_choices_match_the_code():
    from repro.parallel import EXECUTORS, SCHEDULES
    from repro.synth import DATASETS

    assert f"[--executor {'|'.join(EXECUTORS)}]" in USAGE["extract"]
    assert f"[--schedule {'|'.join(SCHEDULES)}]" in USAGE["extract"]
    names = "|".join(DATASETS)
    for verb in ("trace", "stats", "profile", "critical-path", "slo", "serve"):
        assert f"[--data {names}]" in USAGE[verb], verb
    assert f"<{names}>" in USAGE["export"]


def test_extract_reports_params_the_data_cannot_take(tmp_path, capsys):
    """Pathlines need two time levels: on a one-level store the demo
    params are a usage error naming the parameter, not a traceback."""
    store = tmp_path / "one-level"
    assert cli_main(["export", "engine", str(store), "1", "3"]) == 0
    capsys.readouterr()
    args = ["extract", "pathlines", "--data", str(store), "--executor", "serial"]
    assert cli_main(args) == 2
    lines = capsys.readouterr().out.rstrip().splitlines()
    assert "time_range" in lines[0]
    assert lines[-1] == f"usage: {USAGE['extract']}"
