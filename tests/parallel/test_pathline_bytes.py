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
"""

import hashlib

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
    try:
        request = next(gen)
        while True:
            request = gen.send(store.read_block(request.time_index, request.block_id))
    except StopIteration as stop:
        paths = stop.value
    log = repr([(r.time_index, r.block_id) for r in tracer.request_log])
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
