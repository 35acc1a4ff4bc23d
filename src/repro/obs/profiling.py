"""Cross-process sampling profiler: collapsed stacks, one flamegraph.

``python -m repro profile`` (PR 1) wraps a run in ``cProfile`` — fine
in-process, blind the moment :class:`~repro.parallel.ProcessWorkerPool`
fans shares out to worker *processes*.  This module closes that gap
with a sampling profiler cheap enough to run inside every worker:

* :class:`StackSampler` — a daemon thread that snapshots a target
  thread's Python stack every ``interval`` seconds via
  ``sys._current_frames`` and folds it into collapsed-stack form
  (``mod.func;mod.func;... count`` — Brendan Gregg's ``flamegraph.pl``
  / speedscope input format);
* :func:`merge_folded` — aggregates the per-share folded dicts the
  pool ships back with each :class:`~repro.parallel.runner.ShareResult`
  into one profile spanning every worker process;
* :func:`write_folded` — emits the flamegraph-ready file.

Sampling is cooperative with the GIL: the sampler wakes, grabs the
frame list, walks ``f_back`` — a few microseconds per sample at the
default 5 ms interval, so shares are not meaningfully perturbed.
"""

from __future__ import annotations

import sys
import threading
from typing import Iterable, Mapping, TextIO

__all__ = [
    "DEFAULT_INTERVAL",
    "StackSampler",
    "fold_stack",
    "merge_folded",
    "render_folded",
    "write_folded",
    "top_functions",
]

DEFAULT_INTERVAL = 0.005  #: seconds between samples (200 Hz)


def fold_stack(frame) -> str:
    """Collapse one frame chain into ``root;...;leaf`` form."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class StackSampler:
    """Periodically sample one thread's stack into folded counts.

    Usable as a context manager::

        with StackSampler() as sampler:
            run_share()
        folded = sampler.folded

    The target defaults to the thread that *created* the sampler (in a
    pool worker that is the main thread running the share).
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        target_thread_id: int | None = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self.target_thread_id = (
            target_thread_id
            if target_thread_id is not None
            else threading.get_ident()
        )
        self.folded: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------ control
    def start(self) -> "StackSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> dict[str, int]:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join()
        return self.folded

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ worker
    def sample_once(self) -> None:
        frame = sys._current_frames().get(self.target_thread_id)
        if frame is None:
            return
        stack = fold_stack(frame)
        self.folded[stack] = self.folded.get(stack, 0) + 1

    def _run(self) -> None:
        wait = self._stop.wait
        while not wait(self.interval):
            self.sample_once()


# ------------------------------------------------------------ aggregation
def merge_folded(parts: Iterable[Mapping[str, int] | None]) -> dict[str, int]:
    """Sum folded-stack counts across shares / worker processes."""
    out: dict[str, int] = {}
    for part in parts:
        if not part:
            continue
        for stack, count in part.items():
            out[stack] = out.get(stack, 0) + count
    return out


def render_folded(folded: Mapping[str, int]) -> str:
    """The collapsed-stack text ``flamegraph.pl`` / speedscope read."""
    lines = [f"{stack} {count}" for stack, count in sorted(folded.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def write_folded(path_or_file: "str | TextIO", folded: Mapping[str, int]) -> int:
    """Write the folded profile; returns the number of stacks written."""
    text = render_folded(folded)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)
    return len(folded)


def top_functions(
    folded: Mapping[str, int], limit: int = 15
) -> list[tuple[str, int]]:
    """Leaf-function self-sample counts, heaviest first (quick console view)."""
    self_counts: dict[str, int] = {}
    for stack, count in folded.items():
        leaf = stack.rsplit(";", 1)[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
    ranked = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:limit]
