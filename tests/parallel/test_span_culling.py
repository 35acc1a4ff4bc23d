"""Span-space block culling changes which blocks load, never a byte.

On the real path the parent prunes the deal: a threshold command names
what it culls on (``cull_on``), and no slot is dealt a block whose
stored ``[min, max]`` excludes the value.  The reference here is the
same command with culling switched off (``cull_on`` -> ``None``):
every executor, schedule and
group size must merge the same geometry bytes either way, on fields
built to sit on the edges of the test — isovalue exactly at a block's
min or max, at an ``<f4`` rounding boundary, constant fields, NaN/inf.
"""

import math
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commands.iso import IsoDataManCommand, ViewerIsoCommand
from repro.commands.vortex import VortexDataManCommand
from repro.grids.block import StructuredBlock
from repro.grids.multiblock import MultiBlockDataset
from repro.io import write_dataset
from repro.parallel import ParallelExtractor, ShmBlockStore
from tests.conftest import paper_session

SHAPE = (4, 3, 3)


class UnculledIso(IsoDataManCommand):
    name = "iso-unculled"

    def cull_on(self, ctx):
        return None


class UnculledViewerIso(ViewerIsoCommand):
    name = "iso-viewer-unculled"

    def cull_on(self, ctx):
        return None


def _mesh_bytes(mesh) -> bytes:
    return mesh.vertices.tobytes() + b"".join(
        name.encode() + mesh.attributes[name].tobytes()
        for name in sorted(mesh.attributes)
    )


def _block(block_id: int, field: np.ndarray) -> StructuredBlock:
    axes = [np.arange(n, dtype=float) for n in SHAPE]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    coords[..., 0] += block_id * (SHAPE[0] - 1)
    return StructuredBlock(coords, {"pressure": field}, block_id=block_id)


@st.composite
def datasets(draw):
    """2-4 blocks of random / constant / non-finite-bearing pressure,
    and an isovalue aimed at one block's edge of the span space."""
    n_blocks = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n_blocks):
        kind = draw(st.sampled_from(["random", "random", "constant", "nan", "inf"]))
        centre = draw(st.sampled_from([-1.0, 0.0, 0.1, 3.0]))
        if kind == "constant":
            f = np.full(SHAPE, centre + 0.1)
        else:
            f = centre + rng.random(SHAPE)
        if kind == "nan":
            f[rng.integers(SHAPE[0]), 1, 1] = np.nan
        if kind == "inf":
            f[rng.integers(SHAPE[0]), 1, 1] = rng.choice([np.inf, -np.inf])
        fields.append(f)
    target = fields[draw(st.integers(0, n_blocks - 1))]
    finite = target[np.isfinite(target)]
    stored = finite.astype("<f4").astype(np.float64)
    isovalue = draw(st.sampled_from([
        float(stored.min()),            # exactly at a block's stored min
        float(stored.max()),            # ... and max
        float(finite.max()),            # the float64 value <f4 rounded away
        float(np.nextafter(stored.max(), np.inf)),   # one ulp outside
        float(np.nextafter(stored.min(), -np.inf)),
        float(np.median(finite)),
        1e9,
    ]))
    return fields, isovalue


# inf - inf inside the tet interpolation of inf-bearing blocks.
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@given(case=datasets())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_culled_equals_unculled_bytes(case):
    fields, isovalue = case
    level = MultiBlockDataset([_block(i, f) for i, f in enumerate(fields)])
    root = tempfile.mkdtemp(prefix="span-cull-")
    try:
        with ShmBlockStore.from_store(write_dataset(root, [level])) as shm:
            _check_all_configurations(shm, fields, isovalue)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _check_all_configurations(shm, fields, isovalue):
    params = {"scalar": "pressure", "isovalue": isovalue}
    n_blocks = len(fields)
    stored = [f.astype("<f4").astype(np.float64) for f in fields]
    # A non-finite value anywhere makes min or max non-finite too.
    outside = sum(
        1 for f in stored
        if np.isfinite(f).all() and not f.min() <= isovalue <= f.max()
    )
    for executor in ("serial", "process"):
        with ParallelExtractor(shm, workers=2, executor=executor, observe=False) as ext:
            for schedule in (None, "dynamic"):
                for group in (1, 2):
                    for culled_cmd, plain_cmd in (
                        (IsoDataManCommand(), UnculledIso()),
                        (ViewerIsoCommand(), UnculledViewerIso()),
                    ):
                        kw = dict(params=params, group_size=group, schedule=schedule)
                        culled = ext.run(culled_cmd, **kw)
                        plain = ext.run(plain_cmd, **kw)
                        assert _mesh_bytes(culled.result) == _mesh_bytes(plain.result)
                        assert culled.n_culled == outside
                        assert culled.n_loads + culled.n_culled == n_blocks
                        assert plain.n_loads == n_blocks and plain.n_culled == 0


def test_range_table_is_exact_and_skips_non_finite(tmp_path):
    fields = [
        np.linspace(0.1, 0.7, math.prod(SHAPE)).reshape(SHAPE),
        np.full(SHAPE, np.nan),
        np.where(np.arange(math.prod(SHAPE)).reshape(SHAPE) == 5, np.inf, 1.0),
    ]
    level = MultiBlockDataset([_block(i, f) for i, f in enumerate(fields)])
    with ShmBlockStore.from_store(write_dataset(tmp_path, [level])) as shm:
        spans = shm.block_ranges("pressure", 0)
        assert set(spans) == {0}
        # The table bounds the stored <f4 values, not the float64 input.
        assert spans[0] == (float(np.float32(0.1)), float(np.float32(0.7)))
        assert shm.block_ranges("pressure", 0) is spans  # cached
        assert shm.block_ranges("no-such-field", 0) == {}
        assert shm.block_ranges("velocity", 0) == {}


def test_engine_iso_culls_and_keeps_accounting(engine_store):
    params = {"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 2)}
    n_blocks = 2 * engine_store.n_blocks
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        schedules = (None, "dynamic")
        for schedule in schedules:
            res = ext.run("iso-dataman", params=params, schedule=schedule)
            assert 0 < res.n_culled < n_blocks
            assert res.n_loads + res.n_culled == n_blocks
        culled = ext.metrics.counter(
            "parallel_blocks_culled_total",
            {"command": "iso-dataman", "executor": "process"},
        )
        assert culled.value == len(schedules) * res.n_culled
        # The parent counts what it culled, once per run.
        spans = [s for s in ext.tracer.spans if s.kind == "parallel-run"]
        assert sum(s.attrs["n_culled"] for s in spans) == culled.value


class _InlineVortex(VortexDataManCommand):
    """vortex-dataman as it runs with no stored lambda2: the eigenvalue
    pass inline in every share, no range table to cull by."""

    name = "vortex-inline"

    def derived_field(self, ctx):
        return None

    def cull_on(self, ctx):
        return None


def test_vortex_culls_only_on_a_stored_lambda2(engine_store):
    params = {"threshold": -2.0, "time_range": (0, 2)}
    n_blocks = 2 * engine_store.n_blocks
    with ParallelExtractor(engine_store, workers=2, executor="serial") as ext:
        inline = ext.run(_InlineVortex(), params=params)
        assert inline.n_culled == 0 and inline.n_loads == n_blocks
        assert len(ext.store.lacking("lambda2", [0, 1])) == n_blocks
        # vortex-dataman derives lambda2 before planning, then culls on it.
        stored = ext.run("vortex-dataman", params=params)
        assert ext.store.lacking("lambda2", [0, 1]) == []
        assert stored.n_culled > 0
        assert stored.n_loads + stored.n_culled == n_blocks
        assert _mesh_bytes(stored.result) == _mesh_bytes(inline.result)
        # The streamed variant recomputes lambda2 slab by slab and never
        # reads the stored field, so it must not cull on it.
        streamed = ext.run("vortex-streamed", params=params)
        assert streamed.n_culled == 0 and streamed.n_loads == n_blocks


def _count_get_block(shm, monkeypatch) -> list:
    calls = []
    real = shm.get_block

    def counted(time_index, block_id):
        calls.append((time_index, block_id))
        return real(time_index, block_id)

    monkeypatch.setattr(shm, "get_block", counted)
    return calls


def test_derived_field_invalidates_the_level_table(engine_store, monkeypatch):
    """A derived scalar's table is rebuilt from the derived file alone:
    no block is viewed, so no block file is mapped for it."""
    with ShmBlockStore.from_store(engine_store) as shm:
        calls = _count_get_block(shm, monkeypatch)
        assert shm.block_ranges("lambda2", 0) == {}
        assert calls == []
        shape = shm.handles(0)[0].shape
        shm.add_derived_fields("lambda2", {(0, 0): np.full(shape, -3.0)})
        assert shm.block_ranges("lambda2", 0) == {0: (-3.0, -3.0)}
        assert calls == []
        derived = {path for _field, path, _layout in shm.manifest()["derived"]}
        assert set(shm.mapped_files) <= derived


def test_an_absent_scalar_views_no_block(engine_store, monkeypatch):
    """The stored scalar names are read once, when the store is built."""
    with ShmBlockStore.from_store(engine_store) as shm:
        calls = _count_get_block(shm, monkeypatch)
        for t in (0, 1):
            assert shm.block_ranges("lambda2", t) == {}
            assert shm.block_ranges("no-such-field", t) == {}
            assert shm.block_ranges("velocity", t) == {}  # stored, not a scalar
        assert calls == []


def test_a_present_scalar_table_is_unchanged(engine_store, monkeypatch):
    """Every block is still viewed and bounded, here and in an attached copy."""
    expected = {}
    for b in range(engine_store.n_blocks):
        raw = engine_store.read_block(1, b, lazy=True).fields.raw_view("pressure")
        expected[b] = (float(raw.min()), float(raw.max()))
    with ShmBlockStore.from_store(engine_store) as shm:
        calls = _count_get_block(shm, monkeypatch)
        assert shm.block_ranges("pressure", 1) == expected
        assert sorted(calls) == [(1, b) for b in range(engine_store.n_blocks)]
        attached = ShmBlockStore.attach(shm.manifest())
        try:
            assert attached.block_ranges("pressure", 1) == expected
            assert attached.block_ranges("lambda2", 1) == {}
        finally:
            attached.close()


def test_des_contexts_carry_no_table_and_load_every_block(monkeypatch):
    """The simulated path never culls: no range table arrives in a
    worker's context, and an isovalue outside every block's range still
    issues one DMS request per block, as before."""
    session = paper_session(n_workers=2)
    seen = []
    original = IsoDataManCommand.run

    def spy(self, ctx, assignment, worker_index):
        seen.append(getattr(ctx, "block_ranges", None))
        return original(self, ctx, assignment, worker_index)

    monkeypatch.setattr(IsoDataManCommand, "run", spy)
    result = session.run(
        "iso-dataman",
        params={"isovalue": 1e9, "scalar": "pressure", "time_range": (0, 2)},
    )
    assert seen and all(table is None for table in seen)
    assert result.complete
    n_blocks = 2 * session.source.n_blocks
    assert session.scheduler.aggregate_dms_stats().requests == n_blocks
