"""``repro extract``: the CLI path into the real pool.

Each run must exit 0 and print the triangle count a direct
:class:`~repro.parallel.ParallelExtractor` run gives on the same data,
on a synthetic dataset and on a store written by ``repro export``.  The
``result:`` line ends in a sha256 prefix of the merged bytes, so two
lines are equal only where the bytes are.
"""

import os
import re
import shutil
from functools import lru_cache

import pytest

from repro.__main__ import main as cli_main
from repro.commands import DEMO_PARAMS
from repro.io import DatasetStore
from repro.io.dataset_io import DERIVED_DIR
from repro.parallel import ParallelExtractor
from repro.synth import DATASETS

COMMANDS = {"iso": "iso-dataman", "vortex": "vortex-dataman"}


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("cli") / "engine"
    assert cli_main(["export", "engine", str(target), "1", "3"]) == 0
    return str(target)


def _data(source: str):
    if source == "engine":
        return DATASETS["engine"](base_resolution=4, n_timesteps=2)
    return DatasetStore(source)


@lru_cache(maxsize=None)
def _direct_triangles(command: str, source: str) -> int:
    with ParallelExtractor(_data(source), workers=2, executor="serial") as ext:
        return ext.run(command, params=dict(DEMO_PARAMS[command])).result.n_triangles


def _printed_triangles(out: str) -> int:
    return int(re.search(r"mesh with (\d+) triangles", out).group(1))


@pytest.mark.parametrize("source", ["engine", "store"])
@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("alias", sorted(COMMANDS))
def test_extract_matches_a_direct_run(alias, schedule, executor, source,
                                      store_dir, capsys):
    data = "engine" if source == "engine" else store_dir
    args = ["extract", alias, "--data", data, "--workers", "2",
            "--executor", executor, "--schedule", schedule]
    assert cli_main(args) == 0
    out = capsys.readouterr().out
    assert f"({executor} executor, 2 workers, {schedule} schedule)" in out
    assert _printed_triangles(out) == _direct_triangles(COMMANDS[alias], data)


def test_extract_precompute_on_a_store(store_dir, capsys):
    """What ``--precompute`` did, every vortex run on a store now does:
    the first derives lambda2 once and persists it beside the blocks,
    and the next invocation reads it back and prints the same mesh."""
    derived = os.path.join(store_dir, DERIVED_DIR)
    shutil.rmtree(derived, ignore_errors=True)
    args = ["extract", "vortex", "--data", store_dir, "--workers", "2"]
    assert cli_main(args) == 0
    first = _printed_triangles(capsys.readouterr().out)
    assert os.path.isdir(derived) and os.listdir(derived)
    assert cli_main(args) == 0
    assert _printed_triangles(capsys.readouterr().out) == first
    assert first == _direct_triangles("vortex-dataman", store_dir)


def test_a_fully_culled_run_says_no_share_ran(capsys):
    """On Propfan the demo isovalue lies outside every block's stored
    pressure range: the parent culls all of them, and the wall line says
    so instead of listing no share times."""
    assert cli_main(["extract", "iso", "--data", "propfan", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "(no share ran: every block was culled)" in out
    assert "loaded 0 of 144 blocks" in out
    assert _printed_triangles(out) == 0


def _printed_result(args: list[str], capsys) -> str:
    assert cli_main(["extract", *args, "--executor", "serial"]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines()
               if l.startswith("result:")]
    return line


def test_result_line_tells_merged_bytes_apart(capsys):
    """Static shares at group 2 merge the group-1 triangles in another
    order (same counts, other bytes); a dynamic drain merges in
    canonical order, the group-1 bytes."""
    one = _printed_result(["iso-progressive", "--workers", "1"], capsys)
    static = _printed_result(["iso-progressive", "--workers", "2"], capsys)
    dynamic = _printed_result(
        ["iso-progressive", "--workers", "2", "--schedule", "dynamic"], capsys
    )
    assert re.search(r"sha256 [0-9a-f]{8}$", one)
    assert static.split(", sha256")[0] == one.split(", sha256")[0]
    assert static != one
    assert dynamic == one


def test_result_line_digests_polylines(capsys):
    line = _printed_result(["pathlines", "--workers", "2"], capsys)
    assert re.fullmatch(
        r"result: +3 polylines, \d+ vertices, sha256 [0-9a-f]{8}", line
    )
