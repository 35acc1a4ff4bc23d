"""Byte pin for particle tracing on the real path.

Eight fixed seeds on the 8-resolution, 6-level engine written to disk
(``<f4`` fields upcast on read, as every real-path worker sees them).
The constants were captured before the per-point sampling kernels
(``CellLocator.locate_one``/``blend_one``) replaced the tracer's
per-group array plumbing; any change to tracer arithmetic, block-group
order or request coalescing moves at least one of them.  The wire
format carries float32 vertices, so the float64 points and times are
pinned as well: a last-bit change in one velocity sample shows there
and nowhere else.  The DES golden
(``tests/faults/test_golden_pins.py``) pins only two seeds on a smaller
engine, and the process-vs-serial suite compares the code with itself.
A second, clustered set of 64 seeds pins block groups of more than 16
rows.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms.pathlines import BatchPathlineTracer
from repro.io import geometry_to_bytes, write_dataset
from repro.parallel import ParallelExtractor
from repro.viz.polyline import PolylineSet
from tests.conftest import cached_engine

SEEDS = [
    [-0.45, -0.3, 0.45],
    [0.15, -0.5, 0.6],
    [-0.3, 0.2, 0.8],
    [0.4, 0.35, 0.95],
    [-0.1, -0.15, 1.1],
    [0.3, -0.25, 1.3],
    [-0.5, 0.45, 1.5],
    [0.05, 0.1, 1.7],
]

GEOMETRY_SHA256 = "274e40e01b8f1e2a057946c53755811851988988d46fa9f5adc5977acaceaeb1"
REQUEST_LOG_SHA256 = "fa1759dde5c4b38c044d71f98efd3f846e2da30dd7da8800e139658090390a6f"
SAMPLES = 1368
PATHS_SHA256 = "34261ea5bf657eb9b603839c8a85c5c245184f6531277bd893cb154d08e1c3b0"

#: 64 seeds clustered in a 0.12-wide box, so most block groups the
#: tracer forms hold more than 16 rows.  Captured while groups of more
#: than 16 rows still ran through a vectorised locate/interpolate sweep:
#: they pin that deleting the sweep changed no bit.
CLUSTER_SEEDS = np.array([-0.3, 0.2, 0.8]) + np.random.default_rng(34).uniform(
    -0.06, 0.06, size=(64, 3)
)
CLUSTER_GEOMETRY_SHA256 = "4f7a0edaef59221d12f69a6ef5010d52718df3e2b60eeb6c8d644cdb4e50859e"
CLUSTER_REQUEST_LOG_SHA256 = "23c2df7637f24c84055f2486b9f946de266cbcdc2700b731adf4523a74e29c28"
CLUSTER_SAMPLES = 6802
CLUSTER_PATHS_SHA256 = "67a3f28c7e793789fdb1b73c3f828d189f8975945a484eadb5417d58c1619702"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _paths_sha(paths) -> str:
    return _sha(b"".join(
        p.points.tobytes() + p.times.tobytes() + p.termination.encode()
        for p in paths
    ))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    eng = cached_engine(8, 6)
    return write_dataset(
        tmp_path_factory.mktemp("engine8"),
        [eng.level(t) for t in range(6)],
        modeled_shapes=list(eng.spec.modeled_shapes),
        times=eng.spec.times[:6],
    )


def test_batch_trace_pins_geometry_requests_and_samples(store):
    # The defaults pathlines-dataman passes to the tracer.
    tracer = BatchPathlineTracer(
        store.handles(0), store.times, rtol=1e-3, max_steps=400,
        local_cache_blocks=8,
    )
    gen = tracer.trace_many(SEEDS)
    requests = []
    try:
        request = next(gen)
        while True:
            requests.append((request.time_index, request.block_id))
            request = gen.send(store.read_block(request.time_index, request.block_id))
    except StopIteration as stop:
        paths = stop.value
    log = repr(requests)
    assert _sha(geometry_to_bytes(PolylineSet.from_pathlines(paths))) == GEOMETRY_SHA256
    assert _sha(log.encode()) == REQUEST_LOG_SHA256
    assert tracer.samples == SAMPLES
    assert _paths_sha(paths) == PATHS_SHA256


def test_serial_extractor_emits_the_pinned_bytes(store):
    # One share holding all eight seeds is the batch traced above.
    with ParallelExtractor(store, workers=1, executor="serial") as ext:
        res = ext.run("pathlines-dataman", params={"seeds": SEEDS}, group_size=1)
    assert _sha(geometry_to_bytes(PolylineSet.from_pathlines(res.result))) == GEOMETRY_SHA256
    assert _paths_sha(res.result) == PATHS_SHA256


def test_clustered_batch_pins_large_block_groups(store, monkeypatch):
    group_sizes = []
    locate_group = BatchPathlineTracer._locate_group

    def spy(self, locator, bid, rows, *args):
        group_sizes.append(len(rows))
        return locate_group(self, locator, bid, rows, *args)

    monkeypatch.setattr(BatchPathlineTracer, "_locate_group", spy)
    tracer = BatchPathlineTracer(
        store.handles(0), store.times, rtol=1e-3, max_steps=400,
        local_cache_blocks=8,
    )
    gen = tracer.trace_many(CLUSTER_SEEDS)
    requests = []
    try:
        request = next(gen)
        while True:
            requests.append((request.time_index, request.block_id))
            request = gen.send(store.read_block(request.time_index, request.block_id))
    except StopIteration as stop:
        paths = stop.value
    assert max(group_sizes) > 16
    log = repr(requests)
    assert _sha(geometry_to_bytes(PolylineSet.from_pathlines(paths))) == CLUSTER_GEOMETRY_SHA256
    assert _sha(log.encode()) == CLUSTER_REQUEST_LOG_SHA256
    assert tracer.samples == CLUSTER_SAMPLES
    assert _paths_sha(paths) == CLUSTER_PATHS_SHA256
