"""Sampling profiler: stack folding, the sampler thread, aggregation."""

import io
import sys
import time

import pytest

from repro.obs.profiling import (
    DEFAULT_INTERVAL,
    StackSampler,
    fold_stack,
    merge_folded,
    render_folded,
    top_functions,
    write_folded,
)


def test_fold_stack_names_the_leaf():
    def inner():
        return fold_stack(sys._getframe())

    stack = inner()
    parts = stack.split(";")
    assert parts[-1].endswith(".inner")
    # Root-first order: this test function encloses the leaf.
    assert any(p.endswith(".test_fold_stack_names_the_leaf") for p in parts)
    assert parts.index(
        next(p for p in parts if p.endswith("test_fold_stack_names_the_leaf"))
    ) < len(parts) - 1


def test_sample_once_is_deterministic():
    sampler = StackSampler()
    sampler.sample_once()
    sampler.sample_once()
    assert sum(sampler.folded.values()) == 2
    (stack,) = {s.rsplit(";", 1)[-1] for s in sampler.folded} or {""}
    assert stack.endswith(".sample_once")


def test_sample_once_ignores_dead_thread():
    sampler = StackSampler(target_thread_id=-1)
    sampler.sample_once()
    assert sampler.folded == {}


def test_sampler_thread_captures_busy_loop():
    with StackSampler(interval=0.001) as sampler:
        deadline = time.monotonic() + 5.0
        acc = 0
        while sum(sampler.folded.values()) < 3 and time.monotonic() < deadline:
            acc += sum(range(500))
    assert sum(sampler.folded.values()) >= 3


def test_sampler_validation_and_double_start():
    with pytest.raises(ValueError):
        StackSampler(interval=0.0)
    sampler = StackSampler()
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()
    sampler.stop()
    # stop() is idempotent and returns the folded dict.
    assert sampler.stop() == sampler.folded
    assert DEFAULT_INTERVAL > 0


def test_merge_folded_sums_and_skips_empty():
    merged = merge_folded([
        {"a;b": 2, "a;c": 1},
        None,
        {},
        {"a;b": 3, "d": 1},
    ])
    assert merged == {"a;b": 5, "a;c": 1, "d": 1}
    assert merge_folded([]) == {}


def test_render_and_write_folded(tmp_path):
    folded = {"main;work": 7, "main;idle": 2}
    text = render_folded(folded)
    assert text == "main;idle 2\nmain;work 7\n"
    assert render_folded({}) == ""

    path = tmp_path / "out.folded"
    assert write_folded(str(path), folded) == 2
    assert path.read_text() == text

    buf = io.StringIO()
    assert write_folded(buf, folded) == 2
    assert buf.getvalue() == text


def test_top_functions_ranks_leaf_self_time():
    folded = {
        "main;load": 5,
        "main;compute;kernel": 8,
        "other;kernel": 2,
        "main;merge": 1,
    }
    ranked = top_functions(folded, limit=2)
    assert ranked == [("kernel", 10), ("load", 5)]
