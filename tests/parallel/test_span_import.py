"""Cross-process span import: worker share intervals in the parent trace.

Worker processes cannot share the parent's ``SpanTracer``; instead each
:class:`~repro.parallel.runner.ShareResult` carries its wall-clock window
and the extractor imports it via
:meth:`~repro.obs.spans.SpanTracer.record_interval`.  These tests pin
the invariants the critical-path analyzer relies on: every share span
is monotonic, parented under the ``parallel-run`` root, and shares
executed by the same worker process never overlap.

The same results carry each worker's ``cProfile`` stats when the
extractor profiles, and the profile the ``repro profile`` verb merges
from them counts every kernel call exactly, on either executor.
"""

import cProfile
import os

import pytest

from repro.__main__ import _merged_stats
from repro.obs.critical_path import analyze_spans
from repro.parallel import ParallelExtractor

ISO = {"isovalue": 0.0, "scalar": "pressure", "time_range": (0, 1)}


def _traced_run(store, workers):
    with ParallelExtractor(store, workers=workers, executor="process") as ext:
        run = ext.run("iso-dataman", params=ISO)
        spans = ext.tracer.finished()
    return run, spans


def _split(spans):
    roots = [s for s in spans if s.kind == "parallel-run"]
    shares = [s for s in spans if s.kind == "parallel-share"]
    return roots, shares


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_share_spans_imported_per_worker_count(engine_store, workers):
    """One span per slot that ran: a share the parent's prune emptied
    (one of four on this level) is sent to no worker and has none."""
    run, spans = _traced_run(engine_store, workers)
    roots, shares = _split(spans)
    assert len(roots) == 1
    ran = sorted(res.share_index for res in run.shares)
    assert sorted(s.node for s in shares) == ran
    assert len(ran) == (run.group_size - 1 if workers == 4 else run.group_size)
    root = roots[0]

    for share in shares:
        # Monotonic: record_interval only accepts a closed interval.
        assert share.t_end is not None
        assert share.t_start < share.t_end
        # Correct parent: every share hangs off the run root.
        assert share.parent_id == root.span_id
        # The executing worker process is recorded.
        assert share.attrs["pid"] > 0

    # Share intervals sit inside the run (imported, not re-clocked).
    for share in shares:
        assert share.t_start >= root.t_start
        assert share.t_end <= root.t_end


@pytest.mark.parametrize("workers", [2, 4])
def test_shares_do_not_overlap_within_a_worker(engine_store, workers):
    _, spans = _traced_run(engine_store, workers)
    _, shares = _split(spans)
    by_pid = {}
    for share in shares:
        by_pid.setdefault(share.attrs["pid"], []).append(share)
    for pid, owned in by_pid.items():
        owned.sort(key=lambda s: s.t_start)
        for prev, nxt in zip(owned, owned[1:]):
            assert prev.t_end <= nxt.t_start, (
                pid, prev.name, nxt.name,
            )


def test_imported_spans_feed_critical_path(engine_store):
    """The analyzer consumes a parallel trace via its parallel-run root."""
    _, spans = _traced_run(engine_store, 2)
    report = analyze_spans(spans, command="iso-dataman")
    assert report.coverage == pytest.approx(1.0)
    # Share time is compute; plan/fan-out/collect self-time is queue.
    assert report.phase_seconds.get("compute", 0.0) > 0.0


def _kernel_calls(stats: dict) -> int:
    """Calls of the isosurface kernel in a ``cProfile`` stats dict."""
    kernel = os.path.join("algorithms", "isosurface.py")
    return sum(
        ncalls
        for (path, _line, name), (_cc, ncalls, *_rest) in stats.items()
        if name == "extract_block_isosurface" and path.endswith(kernel)
    )


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_profiled_run_counts_every_kernel_call(engine_store, executor, schedule):
    """iso-dataman calls the kernel once per block it loads, so the
    merged profile must count exactly ``n_loads`` calls: the parent's
    own under the serial executor, the workers' under the pool."""
    with ParallelExtractor(
        engine_store, workers=2, executor=executor, profile=True
    ) as ext:
        ext.run("iso-dataman", params=ISO, schedule=schedule)  # pool up
        profiler = cProfile.Profile()
        res = profiler.runcall(ext.run, "iso-dataman", params=ISO, schedule=schedule)
    assert res.n_loads > 0
    if executor == "process":
        for share in res.shares:
            assert _kernel_calls(share.profile_stats) == share.n_loads
    else:
        assert all(share.profile_stats is None for share in res.shares)
    profiler.create_stats()
    parent = _kernel_calls(profiler.stats)
    assert parent == (res.n_loads if executor == "serial" else 0)
    assert _kernel_calls(_merged_stats(profiler, res.shares).stats) == res.n_loads
