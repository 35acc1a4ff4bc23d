"""Tests for the CLI entry point and failure paths through the stack."""

import pytest

from repro.__main__ import main as cli_main
from repro.core.commands import ParamError
from tests.conftest import paper_session


# ------------------------------------------------------------------ CLI


def test_cli_help(capsys):
    assert cli_main([]) == 0
    assert "report" in capsys.readouterr().out


def test_cli_commands_lists_registry(capsys):
    assert cli_main(["commands"]) == 0
    out = capsys.readouterr().out
    assert "iso-dataman" in out
    assert "streaklines" in out


def test_cli_report_single_table(capsys):
    assert cli_main(["report", "table1"]) == 0
    out = capsys.readouterr().out
    assert "engine" in out and "propfan" in out


def test_cli_report_unknown_experiment(capsys):
    assert cli_main(["report", "fig99"]) == 2
    out = capsys.readouterr().out
    assert "unknown experiments ['fig99']" in out
    assert out.rstrip().endswith("usage: python -m repro report [fig6 fig14 ...] [--json FILE]")


def test_cli_unknown_ablation(capsys):
    assert cli_main(["ablations", "nonsense"]) == 2


def test_cli_unknown_mode(capsys):
    assert cli_main(["frobnicate"]) == 2


def test_cli_taxonomy(capsys):
    assert cli_main(["taxonomy"]) == 0
    out = capsys.readouterr().out
    assert "Speed-Up" in out
    assert "iso-viewer" in out


def test_cli_export_roundtrip(tmp_path, capsys):
    target = str(tmp_path / "exported")
    assert cli_main(["export", "engine", target, "2", "4"]) == 0
    from repro.io import DatasetStore

    store = DatasetStore(target)
    assert store.n_timesteps == 2
    assert store.n_blocks == 23


def test_cli_export_usage_errors(capsys):
    assert cli_main(["export"]) == 2
    assert cli_main(["export", "warpcore", "/tmp/x"]) == 2


# ------------------------------------------------------------- failures


@pytest.fixture(scope="module")
def session():
    return paper_session()


def test_unknown_command_raises(session):
    with pytest.raises(KeyError, match="unknown command"):
        session.run("warp-core-breach", params={})


def test_missing_required_param_surfaces(session):
    with pytest.raises(ParamError, match="isovalue is required"):
        session.run("iso-dataman", params={"time_range": (0, 1)})  # no isovalue


def test_pathlines_require_seeds(session):
    with pytest.raises(ParamError, match="seeds is required"):
        session.run("pathlines-dataman", params={"time_range": (0, 2)})
    with pytest.raises(ParamError, match="at least one seed"):
        session.run(
            "pathlines-dataman", params={"seeds": [], "time_range": (0, 2)}
        )


#: Seeds that are not exactly three finite numbers, each with the index
#: of the first bad one.  Six numbers used to be reshaped into two seeds.
MALFORMED_SEEDS = [
    ([[0, 0, 1, 0.1, 0.1, 1.1]], 0),
    ([[0.2, 0.1, 0.8], [0.2, 0.1]], 1),
    ([[0.2, 0.1, 0.8], [0.2, 0.1, 0.8], [0, 0, 1, 0]], 2),
    ([[0.2, float("nan"), 0.8]], 0),
    ([[0.2, 0.1, float("inf")]], 0),
    ([["a", "b", "c"]], 0),
    ([0.2, 0.1, 0.8], 0),
]


@pytest.mark.parametrize("seeds,index", MALFORMED_SEEDS)
def test_malformed_seed_fails_with_its_index(session, seeds, index):
    for name in ("pathlines-dataman", "pathlines-simple", "streaklines"):
        with pytest.raises(ValueError, match=f"seed {index} must be three finite"):
            session.run(name, params={"seeds": seeds, "time_range": (0, 1)})


def test_removed_tracer_param_fails_loudly(session):
    """``tracer`` selected the deleted one-particle tracer; REST and CLI
    callers may still send it, and like any key the declaration lacks it
    must not be silently ignored."""
    for name in ("pathlines-dataman", "pathlines-simple"):
        for value in ("scalar", "batched"):
            with pytest.raises(ParamError, match="unknown parameter 'tracer'"):
                session.run(
                    name,
                    params={
                        "seeds": [[0.2, 0.1, 0.8]],
                        "time_range": (0, 1),
                        "tracer": value,
                    },
                )


def test_session_survives_failed_run(session):
    """A failed command must not poison the session for later runs."""
    with pytest.raises(ParamError):
        session.run("iso-dataman", params={})
    ok = session.run(
        "iso-dataman",
        params={"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)},
    )
    assert ok.geometry.n_triangles >= 0
    assert ok.total_runtime > 0


def test_streaklines_through_framework(session):
    result = session.run(
        "streaklines",
        params={
            "seeds": [[0.2, 0.1, 0.8]],
            "time_range": (0, 2),
            "n_particles": 4,
            "max_steps": 40,
            "rtol": 1e-2,
        },
    )
    streaks = result.payloads[0]
    assert len(streaks) == 1
    assert streaks[0].n_released == 4
