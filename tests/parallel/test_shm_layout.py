"""File-mapping layout and hygiene: the store maps block files and
derived files, and creates no shared-memory segment.

Engine-10 has 46 blocks.  Its store maps their 46 files, and λ2 adds
one derived file beside the dataset; a worker maps only paths the
parent maps, a cold open maps the persisted λ2 without deriving, and
closing either executor leaves no map and no result arena behind, with
no resource-tracker warning at interpreter exit.
"""

import gc
import hashlib
import mmap
import os
import shutil
import subprocess
import sys
import textwrap
import weakref
from multiprocessing import shared_memory

import pytest

from repro.core.commands import Command, Emit, Load, plan_block_assignments
from repro.dms.items import block_item
from repro.io import DatasetStore, write_dataset
from repro.io.dataset_io import DERIVED_DIR, MAPS_HOLD_FDS
from repro.parallel import ParallelExtractor, ShmBlockStore
from repro.parallel import pool as pool_module
from tests.conftest import cached_engine
from tests.parallel.conftest import holds_shared_memory

VORTEX = {"threshold": -0.8}
ISO = {"isovalue": -0.4, "scalar": "pressure"}
@pytest.fixture(scope="module")
def engine10(tmp_path_factory):
    eng = cached_engine(10, 2)
    root = tmp_path_factory.mktemp("engine10")
    write_dataset(
        root, [eng.level(t) for t in range(2)],
        modeled_shapes=list(eng.spec.modeled_shapes), times=eng.spec.times[:2],
    )
    return root


def _block_files(root) -> list[str]:
    store = DatasetStore(root)
    return sorted(
        str(store.block_path(t, b))
        for t in range(store.n_timesteps) for b in range(store.n_blocks)
    )


def _derived_files(root) -> list[str]:
    return sorted(str(p) for p in (root / DERIVED_DIR).glob("*.f8"))


class _WorkerFiles(Command):
    """Loads its blocks, then emits the files the worker process maps."""

    name = "worker-files"

    def plan(self, ctx, group_size):
        return plan_block_assignments(ctx, group_size)

    def run(self, ctx, assignment, worker_index):
        for t, bid in assignment:
            yield Load(block_item(ctx.dataset, t, bid))
        yield Emit(pool_module._worker_store().mapped_files, 0)

    def merge(self, payload_lists):
        return [p for payloads in payload_lists for p in payloads]


def test_engine10_maps_one_segment_then_two(engine10):
    """Block files, then one derived file; a cold open maps both."""
    blocks = _block_files(engine10)
    assert len(blocks) == 46
    with ShmBlockStore.from_store(DatasetStore(engine10)) as store:
        # Every file stamped at open, none mapped before it is read.
        assert sorted(p for p, *_ in store.manifest()["files"].values()) == blocks
        assert store.mapped_files == []
        store.get_block(1, 3)
        assert store.mapped_files == [str(DatasetStore(engine10).block_path(1, 3))]
    with ParallelExtractor(DatasetStore(engine10), workers=2,
                           executor="serial") as ext:
        ext.run("vortex-dataman", params=VORTEX)
        [derived] = _derived_files(engine10)
        assert ext.store.mapped_files == sorted(blocks + [derived])
        ext.run("vortex-dataman", params=VORTEX)
        assert ext.store.mapped_files == sorted(blocks + [derived])
    # A cold open maps the persisted field where it lies, deriving nothing.
    with ParallelExtractor(DatasetStore(engine10), workers=2,
                           executor="serial") as ext:
        assert ext.store.mapped_files == [derived]
        assert ext.store.lacking("lambda2", [0, 1]) == []
        ext.run("vortex-dataman", params=dict(VORTEX, time_range=(0, 2)))
        assert "parallel-precompute" not in {s.kind for s in ext.tracer.finished()}


def test_deriving_level_by_level_keeps_one_derived_map(engine10):
    """Each derive rewrites the field's one file beside the dataset; the
    map of the file it replaced is dropped, and the range table of the
    level whose values did not change is kept."""
    shutil.rmtree(engine10 / DERIVED_DIR, ignore_errors=True)  # derive both levels
    with ParallelExtractor(DatasetStore(engine10), workers=2,
                           executor="serial") as ext:
        for level in range(2):
            ext.run("vortex-dataman",
                    params=dict(VORTEX, time_range=(level, level + 1)))
            [derived] = _derived_files(engine10)
            mapped = ext.store.mapped_files
            assert [p for p in mapped if not p.endswith(".blk")] == [derived]
            assert len(mapped) == 1 + 23 * (level + 1)
        assert ext.store.nbytes == sum(os.path.getsize(p) for p in mapped)
        assert 0 in ext.store._ranges["lambda2"]


def test_a_worker_attaches_two_segments(engine10):
    """A worker maps the store's block and derived paths, no others."""
    with ParallelExtractor(DatasetStore(engine10), workers=2,
                           executor="process") as ext:
        ext.run("vortex-dataman", params=VORTEX)
        [derived] = _derived_files(engine10)
        assert derived in ext.store.mapped_files
        manifest = ext.store.manifest()
        assert [path for _f, path, _l in manifest["derived"]] == [derived]
        stored = {path for path, *_rest in manifest["files"].values()} | {derived}
        seen = ext.run(_WorkerFiles()).result
        assert seen
        for files in seen:
            assert set(files) <= stored
            assert derived in files


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_close_leaves_dev_shm_as_it_was(engine10, executor):
    """Read from the store's and the pool's own state: the store holds
    no segment, and the pool's arenas are gone after close."""
    for _open in range(2):  # the derive, then the persisted field
        ext = ParallelExtractor(DatasetStore(engine10), workers=2, executor=executor)
        arenas = set()
        for _run in range(2):  # the second run has arenas
            ext.run("vortex-dataman", params=VORTEX)
            if ext._pool is not None:
                arenas.update(ext._pool.arena_names)
        assert not holds_shared_memory(ext.store)
        maps = [weakref.ref(buf.obj) for buf in ext.store._maps.values()]
        ext.close()
        gc.collect()
        assert all(ref() is None for ref in maps)
        assert not any(os.path.exists("/dev/shm/" + name) for name in arenas)


@pytest.mark.parametrize("kind", ["store", "synthetic"])
def test_only_result_arenas_are_shared_memory(engine10, kind, monkeypatch):
    """Whatever the data, the one segment the real path creates is a
    result arena."""
    created = []
    real_init = shared_memory.SharedMemory.__init__

    def init(self, name=None, create=False, size=0):
        real_init(self, name=name, create=create, size=size)
        if create:
            created.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", init)
    data = {
        "store": DatasetStore(engine10),
        "synthetic": cached_engine(4, 2),
    }[kind]
    arenas = set()
    with ParallelExtractor(data, workers=2, executor="process") as ext:
        for _run in range(3):
            ext.run("iso-dataman", params=ISO)
            arenas.update(ext._pool.arena_names)
        assert not holds_shared_memory(ext.store)
    assert arenas and set(created) == arenas


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
                # The later runs return meshes through result arenas.
                for _run in range(3):
                    ext.run("vortex-dataman", params={{"threshold": -1.0}})
                assert ext._pool.arena_names
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


class _LoadAll(Command):
    """Every share loads every block, then emits how many of the files
    its worker holds are maps (the rest were read in)."""

    name = "load-all"

    def plan(self, ctx, group_size):
        work = [
            (t, h.block_id)
            for t in ctx.time_indices
            for h in ctx.handles_by_time[t - ctx.time_offset]
        ]
        return [list(work) for _ in range(group_size)]

    def run(self, ctx, assignment, worker_index):
        for t, bid in assignment:
            yield Load(block_item(ctx.dataset, t, bid))
        maps = pool_module._worker_store()._maps.values()
        yield Emit(sum(isinstance(buf.obj, mmap.mmap) for buf in maps), 0)

    def merge(self, payload_lists):
        return [p for payloads in payload_lists for p in payloads]


_LIMITED = textwrap.dedent("""
    import hashlib, mmap, resource, sys
    from repro.io import DatasetStore
    from repro.parallel import ParallelExtractor
    from tests.parallel.test_shm_layout import _LoadAll

    root, executor, soft, hard = sys.argv[1], sys.argv[2], *map(int, sys.argv[3:])
    if hard < 0:
        hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    params = {"isovalue": -0.4, "scalar": "pressure", "time_range": (0, 12)}
    with ParallelExtractor(DatasetStore(root), workers=2, executor=executor) as ext:
        mesh = ext.run("iso-dataman", params=params).result
        print(hashlib.sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes()).hexdigest())
        maps = ext.store._maps.values()
        print(sum(isinstance(buf.obj, mmap.mmap) for buf in maps))
        if executor == "process":
            # Each worker, holding the parent's maps since it forked,
            # now loads every block itself.
            print(*ext.run(_LoadAll(), params={"time_range": (0, 12)}).result)
""")


@pytest.mark.parametrize("hard_too", [False, True])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_more_blocks_than_the_open_file_limit(tmp_path, executor, hard_too):
    """276 blocks under a limit of 64 open files run to the unlimited
    bytes: the soft limit is raised to fit the maps (a forked worker's
    beside those it inherits), and when the hard limit forbids that the
    blocks are read in instead."""
    pytest.importorskip("resource")
    eng = cached_engine(4, 12)
    store = write_dataset(tmp_path, [eng.level(t) for t in range(12)])
    assert store.n_timesteps * store.n_blocks == 276
    with ParallelExtractor(store, workers=2, executor="serial") as ext:
        mesh = ext.run("iso-dataman", params=dict(ISO, time_range=(0, 12))).result
    expected = hashlib.sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes())
    repo = os.path.join(os.path.dirname(__file__), "..", "..")
    path = os.pathsep.join(os.path.abspath(p) for p in (os.path.join(repo, "src"), repo))
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED, str(tmp_path), executor, "64",
         "64" if hard_too else "-1"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest, *shared = proc.stdout.split()
    assert digest == expected.hexdigest()
    # Every process maps what it reads, unless a map would hold a
    # descriptor that the hard limit does not have.
    mapped = 0 if hard_too and MAPS_HOLD_FDS else 276
    if executor == "serial":
        assert shared == [str(mapped)]
    else:
        assert shared[1:] == [str(mapped)] * 2
