"""The shared-memory return path: same payloads, one copy, no leaks.

A pool slot gets a result arena only after it has returned meshes once,
sized to the largest result it has seen; workers write mesh arrays into
it and the pipe carries counts.  Everything else — a pool's first run,
pathlines, empty shares, a result that outgrew the arena — takes the
pickled return unchanged.
"""

import os
import signal
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.commands import (
    Command,
    Compute,
    Load,
    command_context,
    deal,
    plan_block_assignments,
)
from repro.dms.items import block_item
from repro.parallel import ParallelExtractor, ProcessWorkerPool, WorkerPoolError
from repro.parallel.arena import gather_meshes, meshes_nbytes, pack_meshes
from repro.viz.mesh import TriangleMesh

SMALL = {"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 2)}
LARGE = {"isovalue": -0.4, "scalar": "pressure", "time_range": (0, 2)}
PATHLINES = {
    "seeds": [[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9], [0.0, -0.4, 1.1]],
    "time_range": (0, 2),
    "max_steps": 40,
}


def _live(names) -> set[str]:
    """Which of the segments ``names`` still exist.  Only the pool's own
    names are looked up, so another process's segments cannot matter."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return {name for name in names if os.path.exists(os.path.join("/dev/shm", name))}


def _same_payloads(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b) is TriangleMesh
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert list(a.attributes) == list(b.attributes)
        for name in a.attributes:
            assert a.attributes[name].tobytes() == b.attributes[name].tobytes()


class KilledCommand(Command):
    """SIGKILLs its worker mid-share, after the first block loaded."""

    name = "crash-sigkill"

    def plan(self, ctx, group_size):
        return plan_block_assignments(ctx, group_size)

    def run(self, ctx, assignment, worker_index):
        for t, bid in assignment:
            yield Load(block_item(ctx.dataset, t, bid))
            yield Compute(1.0, lambda: os.kill(os.getpid(), signal.SIGKILL))


# ------------------------------------------------------------------ packer
def _mesh(rng, n_triangles, **attributes):
    n = 3 * n_triangles
    return TriangleMesh(
        rng.random((n, 3)), {k: rng.random((n, *tail)) for k, tail in attributes.items()}
    )


def test_pack_unpack_roundtrip_with_attributes():
    rng = np.random.default_rng(0)
    meshes = [
        _mesh(rng, 4),
        _mesh(rng, 1, level=(), order=()),
        TriangleMesh(),
        _mesh(rng, 2, normal=(3,)),
    ]
    buf = memoryview(bytearray(meshes_nbytes(meshes) + 64))
    packed = pack_meshes(meshes, buf)
    assert packed.nbytes == meshes_nbytes(meshes) == sum(m.nbytes for m in meshes)
    [run] = packed.runs(buf, [len(packed.layout)])
    rebuilt = gather_meshes([[run]])[0]
    _same_payloads(rebuilt, meshes)
    assert rebuilt[3].attributes["normal"].shape == (6, 3)
    # The rebuilt meshes live in a private copy, not in the arena.
    buf[:8] = b"\xff" * 8
    _same_payloads(rebuilt, meshes)


def test_pack_declines_what_it_cannot_hold():
    rng = np.random.default_rng(1)
    meshes = [_mesh(rng, 3)]
    assert pack_meshes(meshes, memoryview(bytearray(meshes[0].nbytes - 8))) is None
    assert pack_meshes([], memoryview(bytearray(64))) is None
    assert pack_meshes(meshes + ["not a mesh"], memoryview(bytearray(4096))) is None
    assert meshes_nbytes(meshes + [object()]) is None
    odd = _mesh(rng, 1)
    odd.attributes["tag"] = np.zeros(3, dtype=np.float32)
    assert meshes_nbytes([odd]) is None


# -------------------------------------------------------------------- pool
def test_first_run_allocates_nothing_then_arena_carries_the_bytes(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ref:
        want = ref.run("iso-dataman", params=LARGE)
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        first = ext.run("iso-dataman", params=LARGE)
        assert ext._pool.arena_names == []
        assert ext._pool._arenas == {}
        assert [s.arena_nbytes for s in first.shares] == [0, 0]
        second = ext.run("iso-dataman", params=LARGE)
        names = ext._pool.arena_names
        assert len(names) == 2 and _live(names) == set(names)
        for got, share, ref_share in zip(second.shares, first.shares, want.shares):
            assert got.arena_nbytes == sum(m.nbytes for m in share.payloads) > 0
            _same_payloads(got.payloads, ref_share.payloads)
            # An arena is sized to the result, never beyond (page rounding aside).
            assert ext._pool._arenas[got.share_index].size < got.arena_nbytes + 4096 * 2
        labels = {"command": "iso-dataman", "executor": "process"}
        pickled = ext.metrics.counter("parallel_return_pickled_bytes_total", labels)
        via_arena = ext.metrics.counter("parallel_return_arena_bytes_total", labels)
        assert pickled.value == via_arena.value == sum(
            s.arena_nbytes for s in second.shares)
    assert _live(names) == set()


def test_overflow_falls_back_then_the_next_run_fits(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ref:
        want = ref.run("iso-dataman", params=LARGE)
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        ext.run("iso-dataman", params=SMALL)
        small = ext.run("iso-dataman", params=SMALL)
        assert all(s.arena_nbytes > 0 for s in small.shares)
        overflow = ext.run("iso-dataman", params=LARGE)
        assert all(s.arena_nbytes == 0 for s in overflow.shares)
        fits = ext.run("iso-dataman", params=LARGE)
        assert all(s.arena_nbytes > 0 for s in fits.shares)
        for res in (overflow, fits):
            for got, ref_share in zip(res.shares, want.shares):
                _same_payloads(got.payloads, ref_share.payloads)
        # Grown arenas still serve smaller results.
        again = ext.run("iso-dataman", params=SMALL)
        assert all(s.arena_nbytes > 0 for s in again.shares)


def _check_arena_returns(res, seen: dict[int, int]) -> None:
    """A share comes back through its slot's arena according to what that
    slot returned before (``seen``: the largest mesh result per slot, as
    the pool records it), whichever slot won the tickets this run: a slot
    that never returned meshes has no arena, so its result is pickled; a
    result no larger than its slot's largest earlier one always fits."""
    for share in res.shares:
        slot, needed = share.share_index, sum(m.nbytes for m in share.payloads)
        prior = seen.get(slot, 0)
        if prior == 0:
            assert share.arena_nbytes == 0
        elif 0 < needed <= prior:
            assert share.arena_nbytes == needed
        seen[slot] = max(prior, needed)


def test_dynamic_task_payloads_are_rebuilt_from_the_arena(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ref:
        want = ref.run("iso-dataman", params=LARGE, schedule="dynamic")
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        # Who drains what varies run to run (on one CPU one slot can win
        # every ticket), so run until some share came back through an
        # arena; each run must match its slots' history.
        seen: dict[int, int] = {}
        for _ in range(8):
            res = ext.run("iso-dataman", params=LARGE, schedule="dynamic")
            _check_arena_returns(res, seen)
            for share in res.shares:
                flat = [m for rec in share.tasks for m in rec.payloads]
                _same_payloads(flat, share.payloads)
            assert res.result.vertices.tobytes() == want.result.vertices.tobytes()
            if any(s.arena_nbytes > 0 for s in res.shares):
                break
        else:
            pytest.fail("no run returned through an arena")


def test_a_slot_that_never_returned_meshes_gets_no_arena(engine_store):
    """The claim sequence that made the old "a third run has seen enough"
    check flaky: the slots draining run 3 had returned nothing before
    (forced here by forgetting every slot's history).  Everything is
    pickled, so ``any(arena_nbytes > 0)`` is false, while the check over
    each slot's history holds."""
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        for _ in range(2):
            ext.run("iso-dataman", params=LARGE, schedule="dynamic")
        pool = ext._pool
        while pool._arenas:
            _slot, arena = pool._arenas.popitem()
            arena.close()
            arena.unlink()
        pool._arena_wanted.clear()
        res = ext.run("iso-dataman", params=LARGE, schedule="dynamic")
        assert not any(s.arena_nbytes > 0 for s in res.shares)
        _check_arena_returns(res, {})


def test_mixed_payload_kinds(engine_store):
    far = dict(LARGE, isovalue=1e9)
    prog = dict(LARGE, max_levels=3)
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ref:
        want_paths = ref.run("pathlines-dataman", params=PATHLINES)
        want_prog = ref.run("iso-progressive", params=prog)
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        for _ in range(3):  # pathlines never pack: always the pickled return
            paths = ext.run("pathlines-dataman", params=PATHLINES)
            assert all(s.arena_nbytes == 0 for s in paths.shares)
        for a, b in zip(paths.result, want_paths.result):
            assert a.points.tobytes() == b.points.tobytes()
        for _ in range(2):  # empty shares: nothing to return, no arena
            empty = ext.run("iso-dataman", params=far)
            assert empty.n_payloads == 0
        assert ext._pool._arenas == {}
        ext.run("iso-progressive", params=prog)
        res = ext.run("iso-progressive", params=prog)  # meshes with attributes
        assert all(s.arena_nbytes > 0 for s in res.shares)
        for got, ref_share in zip(res.shares, want_prog.shares):
            _same_payloads(got.payloads, ref_share.payloads)
            assert "finest" in got.payloads[0].attributes


# ----------------------------------------------------------- the gather
CUT = {"normal": (0.0, 0.0, 1.0), "offset": 0.8, "time_range": (0, 2),
       "attributes": ["pressure"]}


def _merged_bytes(mesh) -> bytes:
    return mesh.vertices.tobytes() + b"".join(
        mesh.attributes[name].tobytes() for name in sorted(mesh.attributes)
    )


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("command,params", [("iso-dataman", LARGE), ("cutplane", CUT)])
def test_payloads_are_slices_of_the_merged_mesh(engine_store, command, params, schedule):
    """Every unit's meshes land once, in canonical task order, in one
    buffer: each payload is a view of the merged result, which is the
    serial executor's bytes (a drain's equal static group 1's)."""
    group = 2 if schedule == "static" else 1
    with ParallelExtractor(engine_store, workers=group, executor="serial") as ref:
        want = _merged_bytes(ref.run(command, params=params).result)
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        # Pickled first, then through the arenas: run until some share
        # came back through one (who drains what varies run to run).
        for _ in range(8):
            res = ext.run(command, params=params, schedule=schedule)
            assert res.result.n_triangles > 0
            assert _merged_bytes(res.result) == want
            for share in res.shares:
                for mesh in share.payloads:
                    if mesh.n_vertices:
                        assert np.shares_memory(mesh.vertices, res.result.vertices)
                        for name, values in res.result.attributes.items():
                            assert np.shares_memory(mesh.attributes[name], values)
            if any(s.arena_nbytes > 0 for s in res.shares):
                break
        else:
            pytest.fail("no run returned through an arena")


def test_a_result_outlives_the_arenas_next_run(engine_store):
    """The merged mesh is the run's own buffer, not an arena: the next
    runs, which rewrite the arenas, leave its bytes alone."""
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        ext.run("iso-dataman", params=LARGE)
        first = ext.run("iso-dataman", params=LARGE)
        assert all(s.arena_nbytes > 0 for s in first.shares)
        kept = _merged_bytes(first.result)
        for params in (SMALL, LARGE):
            again = ext.run("iso-dataman", params=params)
            assert all(s.arena_nbytes > 0 for s in again.shares)
        assert _merged_bytes(first.result) == kept
        assert _merged_bytes(again.result) == kept


def test_one_slot_pickled_one_through_its_arena(engine_store):
    """A slot whose result outgrew its arena comes back pickled and
    lands in the same merged buffer as its neighbour's arena run."""
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ref:
        want = _merged_bytes(ref.run("iso-dataman", params=LARGE).result)
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        for _ in range(2):
            ext.run("iso-dataman", params=LARGE)
        pool = ext._pool
        # Shrink slot 1's arena below its result (and its record of it).
        old = pool._arenas.pop(1)
        old.close()
        old.unlink()
        pool._arenas[1] = shared_memory.SharedMemory(create=True, size=4096)
        pool._arena_wanted[1] = 4096
        res = ext.run("iso-dataman", params=LARGE)
        assert res.shares[0].arena_nbytes > 0 and res.shares[1].arena_nbytes == 0
        assert _merged_bytes(res.result) == want
        for share in res.shares:
            assert all(np.shares_memory(m.vertices, res.result.vertices)
                       for m in share.payloads if m.n_vertices)


def test_sigkill_mid_share_raises_and_leaves_no_segment(engine_store):
    ext = ParallelExtractor(engine_store, workers=2, executor="process")
    try:
        ext.run("iso-dataman", params=LARGE)
        ext.run("iso-dataman", params=LARGE)
        names = ext._pool.arena_names
        assert _live(names) == set(names) != set()  # the crash happens with arenas live
        pool = ext._pool
        with pytest.raises(WorkerPoolError):
            ext.run(KilledCommand(), params={"time_range": (0, 1)})
        assert pool.closed and pool._arenas == {}
    finally:
        ext.close()
    assert _live(names) == set()


def test_close_is_idempotent(engine_store):
    with ParallelExtractor(engine_store, workers=1, executor="serial") as ext:
        pool = ProcessWorkerPool(ext.store, 2)
        cmd = ext.registry.create("iso-dataman")
        ctx = command_context(cmd, ext.store, ext.store.time_indices, LARGE, ext.costs)
        for _ in range(2):
            pool.run_shares(cmd, ctx, deal(cmd, ctx, 2))
        assert len(pool._arenas) == 2
        pool.close()
        pool.close()
        assert pool.closed and pool._arenas == {}
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.run_shares(cmd, ctx, deal(cmd, ctx, 2))
        assert pool._arenas == {}  # a closed pool allocates nothing


def test_no_resource_tracker_warning_at_exit(engine_store):
    script = textwrap.dedent(f"""
        from repro.io import DatasetStore
        from repro.parallel import ParallelExtractor
        params = {LARGE!r}
        with ParallelExtractor(DatasetStore({str(engine_store.root)!r}),
                               workers=2, executor="process") as ext:
            for schedule in (None, None, "dynamic", "dynamic", None):
                ext.run("iso-dataman", params=params, schedule=schedule)
            ext.run("iso-dataman", params=dict(params, isovalue=0.0))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr
    assert "leaked" not in proc.stderr
