"""Cross-process span import: worker share intervals in the parent trace.

Worker processes cannot share the parent's ``SpanTracer``; instead each
:class:`~repro.parallel.runner.ShareResult` carries its wall-clock window
and the extractor imports it via
:meth:`~repro.obs.spans.SpanTracer.record_interval`.  These tests pin
the invariants the critical-path analyzer relies on: every share span
is monotonic, parented under the ``parallel-run`` root, and shares
executed by the same worker process never overlap.
"""

import pytest

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
    run, spans = _traced_run(engine_store, workers)
    roots, shares = _split(spans)
    assert len(roots) == 1
    assert len(shares) == run.group_size
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


def test_flamegraph_requires_profiling_enabled(engine_store):
    with ParallelExtractor(engine_store, workers=1) as ext:
        ext.run("iso-dataman", params=ISO)
        with pytest.raises(RuntimeError, match="profiling disabled"):
            ext.write_flamegraph("/dev/null")


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_profiled_run_writes_folded_output(engine_store, tmp_path, executor, schedule):
    with ParallelExtractor(
        engine_store, workers=2, executor=executor, profile_interval=0.001
    ) as ext:
        res = ext.run("iso-dataman", params=ISO, schedule=schedule)
        out = tmp_path / "profile.folded"
        n = ext.write_flamegraph(str(out))
    # Sampling is statistical: short shares may yield zero samples, but
    # every share must have run under a sampler, and the write path and
    # the stack-count contract must hold regardless.
    assert all(share.folded is not None for share in res.shares)
    assert n == len(ext.folded)
    text = out.read_text()
    assert len(text.splitlines()) == n
