"""Shared-memory layout and hygiene: one segment per store, one per
derived field.

Engine-10 has 46 blocks.  Its store maps them into one payload segment
and λ2 into one more; a worker attaches those two names, and closing
either executor leaves ``/dev/shm`` as it found it, with no
resource-tracker warning at interpreter exit.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.commands import Command, Emit, plan_block_assignments
from repro.io import DatasetStore, write_dataset
from repro.parallel import ParallelExtractor, ShmBlockStore
from repro.parallel import pool as pool_module
from tests.conftest import cached_engine

VORTEX = {"threshold": -0.8}


@pytest.fixture(scope="module")
def engine10(tmp_path_factory):
    eng = cached_engine(10, 2)
    root = tmp_path_factory.mktemp("engine10")
    write_dataset(
        root, [eng.level(t) for t in range(2)],
        modeled_shapes=list(eng.spec.modeled_shapes), times=eng.spec.times[:2],
    )
    return root


def _segment_names(store: ShmBlockStore) -> list[str]:
    return sorted(shm.name for shm in store._all_segments())


def _shm_names() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return set(os.listdir("/dev/shm"))


class _WorkerSegments(Command):
    """Emits the segment names the worker process's store has mapped."""

    name = "worker-segments"

    def plan(self, ctx, group_size):
        return plan_block_assignments(ctx, group_size)

    def run(self, ctx, assignment, worker_index):
        yield Emit(_segment_names(pool_module._worker_store()), 0)

    def merge(self, payload_lists):
        return [p for payloads in payload_lists for p in payloads]


def test_engine10_maps_one_segment_then_two(engine10):
    with ShmBlockStore.from_store(DatasetStore(engine10)) as store:
        assert len(store.keys()) == 46
        assert store.n_segments == 1
    with ParallelExtractor(DatasetStore(engine10), workers=2,
                           executor="serial") as ext:
        assert ext.store.n_segments == 1
        ext.run("vortex-dataman", params=VORTEX)
        assert ext.store.n_segments == 2
        ext.run("vortex-dataman", params=VORTEX)
        assert ext.store.n_segments == 2
    # A cold open maps the persisted field straight away.
    with ShmBlockStore.from_store(DatasetStore(engine10)) as store:
        assert store.n_segments == 2
        assert store.lacking("lambda2", [0, 1]) == []


def test_a_worker_attaches_two_segments(engine10):
    with ParallelExtractor(DatasetStore(engine10), workers=2,
                           executor="process") as ext:
        ext.run("vortex-dataman", params=VORTEX)
        parent = _segment_names(ext.store)
        assert len(parent) == 2
        assert len(ext.store.manifest()["derived"]) == 1
        seen = ext.run(_WorkerSegments()).result
        assert seen and all(names == parent for names in seen)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_close_leaves_dev_shm_as_it_was(engine10, executor):
    before = _shm_names()
    for _open in range(2):  # the derive, then the persisted field
        ext = ParallelExtractor(DatasetStore(engine10), workers=2, executor=executor)
        ext.run("vortex-dataman", params=VORTEX)
        assert _shm_names() - before
        ext.close()
        assert _shm_names() <= before


def test_no_leaked_shared_memory_warning_at_exit(tmp_path):
    script = textwrap.dedent(f"""
        from repro.io import DatasetStore, write_dataset
        from repro.parallel import ParallelExtractor
        from repro.synth import build_engine

        eng = build_engine(base_resolution=4, n_timesteps=2)
        write_dataset({str(tmp_path)!r}, [eng.level(t) for t in range(2)])
        for _open in range(2):
            with ParallelExtractor(DatasetStore({str(tmp_path)!r}), workers=2,
                                   executor="process") as ext:
                ext.run("vortex-dataman", params={{"threshold": -1.0}})
    """)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "leaked shared_memory" not in proc.stderr
    assert os.listdir(tmp_path / "derived")
