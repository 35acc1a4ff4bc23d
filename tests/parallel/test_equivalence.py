"""Serial vs process executors must agree to the byte.

The process pool merges share payloads in share-index order over the
same shared bytes the serial executor reads, so every command's merged
result must be byte-identical across executors and worker counts — the
acceptance bar of the multicore subsystem.
"""

import numpy as np
import pytest

from repro.algorithms import extract_isosurface
from repro.parallel import ParallelExtractor
from tests.conftest import cached_engine

ISO = {"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 2)}
VORTEX = {"threshold": 0.0, "time_range": (0, 2)}
CUTPLANE = {"normal": (0.0, 0.0, 1.0), "offset": 0.8, "time_range": (0, 1)}
PATHLINES = {
    "seeds": [[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9], [0.0, -0.4, 1.1], [0.1, 0.0, 0.7]],
    "time_range": (0, 2),
    "max_steps": 60,
}


def _mesh_bytes(mesh) -> bytes:
    return mesh.vertices.tobytes() + mesh.triangles.tobytes()


def _run(store, executor, workers, command, params, precompute=None):
    with ParallelExtractor(store, workers=workers, executor=executor) as ext:
        if precompute:
            ext.precompute(precompute)
        return ext.run(command, params=params)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize(
    "command,params",
    [
        ("iso-dataman", ISO),
        ("vortex-dataman", VORTEX),
        ("cutplane", CUTPLANE),
    ],
)
def test_mesh_commands_byte_identical(engine_store, command, params, workers):
    serial = _run(engine_store, "serial", workers, command, params)
    process = _run(engine_store, "process", workers, command, params)
    assert serial.result.n_triangles > 0
    assert _mesh_bytes(serial.result) == _mesh_bytes(process.result)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pathlines_byte_identical(engine_store, workers):
    serial = _run(engine_store, "serial", workers, "pathlines-dataman", PATHLINES)
    process = _run(engine_store, "process", workers, "pathlines-dataman", PATHLINES)
    assert len(serial.result) == len(PATHLINES["seeds"])
    assert len(serial.result) == len(process.result)
    for a, b in zip(serial.result, process.result):
        assert a.points.tobytes() == b.points.tobytes()
        assert a.times.tobytes() == b.times.tobytes()


def test_precomputed_lambda2_preserves_bytes(engine_store):
    plain = _run(engine_store, "serial", 2, "vortex-dataman", VORTEX)
    derived = _run(
        engine_store, "process", 2, "vortex-dataman", VORTEX, precompute="lambda2"
    )
    assert _mesh_bytes(plain.result) == _mesh_bytes(derived.result)


def test_matches_library_reference(engine_store):
    """The shared-memory path reproduces the direct library path."""
    reference = extract_isosurface(
        engine_store.read_level(0), ISO["scalar"], ISO["isovalue"]
    )
    # A single share visits blocks in storage order, exactly like the
    # library loop; fragment merge order is then identical too.
    got = _run(
        engine_store, "process", 1, "iso-dataman", {**ISO, "time_range": (0, 1)}
    )
    assert _mesh_bytes(reference) == _mesh_bytes(got.result)


def test_synthetic_dataset_input_byte_identical():
    eng = cached_engine(4, 2)
    serial = _run(eng, "serial", 2, "iso-dataman", ISO)
    process = _run(eng, "process", 2, "iso-dataman", ISO)
    assert _mesh_bytes(serial.result) == _mesh_bytes(process.result)


def test_group_size_changes_order_not_geometry(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        one = ext.run("iso-dataman", params=ISO, group_size=1)
        many = ext.run("iso-dataman", params=ISO, group_size=5)
    # Different share counts merge fragments in different orders, but
    # the triangle soup itself is the same set.
    assert one.result.n_triangles == many.result.n_triangles
    a = np.sort(one.result.vertices.round(12).view(np.float64).reshape(-1, 3), axis=0)
    b = np.sort(many.result.vertices.round(12).view(np.float64).reshape(-1, 3), axis=0)
    np.testing.assert_array_equal(a, b)
    # Same group size, either executor => byte-identical (determinism pin).
    again = _run(engine_store, "serial", 2, "iso-dataman", ISO)
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext2:
        repeat = ext2.run("iso-dataman", params=ISO)
    assert _mesh_bytes(again.result) == _mesh_bytes(repeat.result)


def test_observability_lands_in_obs(engine_store):
    with ParallelExtractor(engine_store, workers=2, executor="process") as ext:
        res = ext.run("iso-dataman", params=ISO)
        kinds = ext.tracer.kinds()
        assert "parallel-run" in kinds and "parallel-share" in kinds
        shares = ext.tracer.of_kind("parallel-share")
        assert len(shares) == len(res.shares)
        for span in shares:
            assert span.t_end is not None and span.t_end >= span.t_start
        snap = ext.metrics.snapshot()
        assert "parallel_shares_total" in snap
        assert "parallel_share_seconds" in snap
        total = sum(s["value"] for s in snap["parallel_shares_total"])
        assert total == len(res.shares)
