"""ShmBlockStore: mapped files, zero-copy views, manifests, cleanup."""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.lambda2 import lambda2_field
from repro.grids.block import LazyStructuredBlock
from repro.parallel import ShmBlockStore
from repro.parallel import shm as shm_module
from tests.conftest import cached_engine


def test_from_store_blocks_match_disk(engine_store):
    with ShmBlockStore.from_store(engine_store) as shm:
        assert shm.n_blocks == engine_store.n_blocks
        assert shm.time_indices == [0, 1]
        for t in range(2):
            for b in range(engine_store.n_blocks):
                ours = shm.get_block(t, b)
                ref = engine_store.read_block(t, b, lazy=True)
                assert isinstance(ours, LazyStructuredBlock)
                assert ours.coords.tobytes() == ref.coords.tobytes()
                for name in ref.fields:
                    assert (
                        ours.fields[name].tobytes() == ref.fields[name].tobytes()
                    )


def test_views_are_read_only_and_zero_copy(engine_store):
    with ShmBlockStore.from_store(engine_store) as shm:
        block = shm.get_block(0, 0)
        assert not block.coords.flags.writeable
        raw = block.fields.raw_view("pressure")
        assert raw is not None
        assert not raw.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            raw[0, 0, 0] = 1.0
        # Two reads view the same shared pages, not copies.
        again = shm.get_block(0, 0)
        assert np.shares_memory(
            raw, again.fields.raw_view("pressure")
        ) or raw.tobytes() == again.fields.raw_view("pressure").tobytes()


def test_a_synthetic_dataset_round_trips():
    eng = cached_engine(4, 2)
    with ShmBlockStore.from_synthetic(eng) as shm:
        block = shm.get_block(0, 0)
        ref = eng.build_block(0, 0)
        # Serialization canonicalizes fields to <f4 — compare at f4.
        for name in ref.fields:
            np.testing.assert_array_equal(
                np.asarray(block.fields[name], dtype=np.float32),
                np.asarray(ref.fields[name], dtype=np.float32),
            )
        np.testing.assert_array_equal(block.coords, ref.coords)


def test_manifest_attach_same_process(engine_store):
    with ShmBlockStore.from_store(engine_store) as owner:
        manifest = owner.manifest()
        attached = ShmBlockStore.attach(manifest)
        try:
            a = attached.get_block(0, 1)
            b = owner.get_block(0, 1)
            assert a.coords.tobytes() == b.coords.tobytes()
            assert attached.handles(0)[1].block_id == 1
            # Attaching maps lazily: only the block asked for.
            assert attached.mapped_files == [str(engine_store.block_path(0, 1))]
        finally:
            attached.close()
        # Attached stores never remove someone else's files.
        attached.cleanup()
        assert owner.get_block(0, 1) is not None
        assert os.path.exists(engine_store.block_path(0, 1))


def test_derived_fields_are_float64_and_shared(engine_store):
    with ShmBlockStore.from_store(engine_store) as shm:
        block = shm.get_block(0, 0)
        lam = lambda2_field(block, "velocity")
        shm.add_derived_fields("lambda2", {(0, 0): lam})
        enriched = shm.get_block(0, 0)
        raw = enriched.fields.raw_view("lambda2")
        assert raw.dtype == np.float64
        assert not raw.flags.writeable
        # Byte-identical to in-place computation: the reuse fast path in
        # the vortex command cannot change results.
        assert enriched.fields["lambda2"].tobytes() == lam.tobytes()
        [(name, path, layout)] = shm.manifest()["derived"]
        assert name == "lambda2" and (0, 0) in layout
        assert path in shm.mapped_files


def test_cleanup_retires_all_segments(engine_store):
    """A store's private directory (a synthetic dataset's blocks and the
    fields derived beside them) goes with ``cleanup``; the dataset's
    own files stay."""
    eng = cached_engine(4, 2)
    shm = ShmBlockStore.from_synthetic(eng)
    shm.add_derived_fields("lambda2", {(0, 0): lambda2_field(shm.get_block(0, 0))})
    paths = shm.mapped_files
    assert paths and all(os.path.exists(p) for p in paths)
    assert all(Path(p).is_relative_to(shm._private) for p in paths)
    shm.cleanup()
    assert not any(os.path.exists(p) for p in paths)
    # Idempotent.
    shm.cleanup()
    with ShmBlockStore.from_store(engine_store) as disk:
        disk.get_block(0, 0)
        paths = disk.mapped_files
    assert paths and all(os.path.exists(p) for p in paths)


def test_unknown_block_raises(engine_store):
    with ShmBlockStore.from_store(engine_store) as shm:
        with pytest.raises(KeyError):
            shm.get_block(2, 0)
        with pytest.raises(KeyError):
            shm.add_derived_fields("lambda2", {(7, 0): np.zeros((2, 2, 2))})


@pytest.mark.skipif(os.name != "posix", reason="pids are probed with kill(pid, 0)")
def test_a_killed_creators_directory_goes_with_the_next_one():
    """A creator killed before ``cleanup`` leaves its private directory;
    the next private directory made removes it, and no live one."""
    script = (
        "import os, signal\n"
        "from repro.parallel import ShmBlockStore\n"
        "store = ShmBlockStore()\n"
        "print(store._private_dir(), flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), timeout=60,
    )
    orphan = proc.stdout.strip()
    assert proc.returncode == -signal.SIGKILL and os.path.isdir(orphan)
    live = tempfile.mkdtemp(prefix=f"repro-store-{os.getppid()}-")
    try:
        shm = ShmBlockStore.from_synthetic(cached_engine(4, 2))
        shm.cleanup()
        assert not os.path.exists(orphan)
        assert os.path.isdir(live)
    finally:
        shutil.rmtree(live, ignore_errors=True)


@pytest.mark.skipif(os.name != "posix", reason="pids are probed with kill(pid, 0)")
def test_a_locked_directory_of_a_dead_pid_survives():
    """A pid that is not alive here may be a live creator's in another
    pid namespace sharing the temporary directory: while its lock is
    held, its directory stays; once released, it is an orphan."""
    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    assert gone.wait(timeout=60) == 0  # reaped: its pid names no process
    other = Path(tempfile.mkdtemp(prefix=f"repro-store-{gone.pid}-"))
    holder = shm_module._lock(other)
    try:
        assert holder is not None
        ShmBlockStore.from_synthetic(cached_engine(4, 2)).cleanup()
        assert other.is_dir()
    finally:
        os.close(holder)
    ShmBlockStore.from_synthetic(cached_engine(4, 2)).cleanup()
    assert not other.exists()
