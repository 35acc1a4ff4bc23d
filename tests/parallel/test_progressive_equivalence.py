"""Progressive finest-level geometry is byte-identical to plain iso.

The ISSUE-9 keystone: level-major scheduling, pyramid caching and
coarse-to-fine culling are pure *scheduling* changes — the finest level
merged per block must reproduce ``iso-dataman`` exactly (vertices,
triangle count, attributes), on the serial interpreter and on the real
process pool alike.  A resolution-8 engine keeps the blocks coarsenable
(3 pyramid levels); the stock resolution-4 store degenerates to a
single level, which exercises the uncoarsenable path instead.
"""

import numpy as np
import pytest

from repro.io import write_dataset
from repro.parallel import ParallelExtractor
from tests.conftest import cached_engine

ISO = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 2)}
PROG = dict(ISO, max_levels=4)


@pytest.fixture(scope="module")
def engine8_store(tmp_path_factory):
    eng = cached_engine(8, 2)
    root = tmp_path_factory.mktemp("engine8_store")
    return write_dataset(
        root,
        [eng.level(t) for t in range(2)],
        modeled_shapes=list(eng.spec.modeled_shapes),
        times=eng.spec.times[:2],
    )


def _identical(a, b):
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.n_triangles == b.n_triangles
    assert sorted(a.attributes) == sorted(b.attributes)
    for key in a.attributes:
        assert a.attributes[key].tobytes() == b.attributes[key].tobytes()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_finest_level_equals_plain_iso_serial(engine8_store, workers):
    with ParallelExtractor(
        engine8_store, workers=workers, executor="serial", observe=False
    ) as ext:
        iso = ext.run("iso-dataman", params=dict(ISO)).result
        prog = ext.run("iso-progressive", params=dict(PROG)).result
    assert iso.n_triangles > 0
    _identical(iso, prog)


@pytest.mark.parametrize("workers", [2, 4])
def test_finest_level_equals_plain_iso_process_pool(engine8_store, workers):
    with ParallelExtractor(
        engine8_store, workers=workers, executor="process", observe=False
    ) as ext:
        iso = ext.run("iso-dataman", params=dict(ISO)).result
        prog = ext.run("iso-progressive", params=dict(PROG)).result
    _identical(iso, prog)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_dynamic_schedule_equals_static_group_one(engine8_store, executor):
    """``schedule`` picks the drain, ``traversal`` the refinement order:
    a dynamic progressive run merges static group-1 bytes."""
    with ParallelExtractor(
        engine8_store, workers=1, executor="serial", observe=False
    ) as ref:
        want = ref.run("iso-progressive", params=dict(PROG)).result
    with ParallelExtractor(
        engine8_store, workers=2, executor=executor, observe=False
    ) as ext:
        for traversal in ("level-major", "depth-first"):
            got = ext.run(
                "iso-progressive", params=dict(PROG, traversal=traversal),
                schedule="dynamic",
            )
            assert got.schedule == "dynamic"
            _identical(want, got.result)


def test_depth_first_schedule_same_geometry(engine8_store):
    with ParallelExtractor(
        engine8_store, workers=2, executor="serial", observe=False
    ) as ext:
        lm = ext.run("iso-progressive", params=dict(PROG)).result
        df = ext.run(
            "iso-progressive", params=dict(PROG, traversal="depth-first")
        ).result
    _identical(lm, df)


def test_merged_result_carries_no_bookkeeping_attributes(engine8_store):
    with ParallelExtractor(
        engine8_store, workers=2, executor="serial", observe=False
    ) as ext:
        prog = ext.run("iso-progressive", params=dict(PROG)).result
    for tag in ("level", "finest", "order"):
        assert tag not in prog.attributes


def test_excluded_isovalue_skips_every_compute(engine8_store):
    """Satellite (a): levels whose range excludes the isovalue cost
    nothing — no cull, no Compute op, no packet.  With an isovalue
    outside the global field range the only computes are the per-block
    pyramid builds."""
    far = dict(PROG, isovalue=1e9)
    with ParallelExtractor(
        engine8_store, workers=1, executor="serial", observe=False
    ) as ext:
        res = ext.run("iso-progressive", params=far)
    n_blocks = sum(
        len(engine8_store.handles(t)) for t in range(*far["time_range"])
    )
    assert res.result.is_empty()
    (share,) = res.shares
    assert share.n_computes == n_blocks  # pyramid builds only
    # No geometry was emitted at all; only the approximation marker.
    assert share.n_emits == 1


def test_second_run_reuses_cached_pyramids(engine8_store):
    with ParallelExtractor(
        engine8_store, workers=1, executor="serial", observe=False
    ) as ext:
        first = ext.run("iso-progressive", params=dict(PROG))
        again = ext.run("iso-progressive", params=dict(PROG, isovalue=-0.1))
    n_blocks = sum(
        len(engine8_store.handles(t)) for t in range(*PROG["time_range"])
    )
    (s1,) = first.shares
    (s2,) = again.shares
    # First run paid one pyramid build per block on top of extraction;
    # the re-extraction at a new isovalue paid none (runner-local memo)
    # and skipped the full-resolution block loads entirely.
    assert s1.n_computes >= n_blocks
    assert s2.n_loads == 0
    assert s2.n_computes <= s1.n_computes - n_blocks
