"""Per-layer numbers: driver-side spans around each module's public calls.

Two sources feed the per-layer table of a traced run:

* the workload's own **traced pass** — one root span per op with a
  child span for every public call the driver makes (plus the workers'
  share intervals, imported from ``ParallelResult.shares``); a layer's
  self time is its span minus what its children cover;
* the **layer probes** below — an in-process replay of one
  representative op per path through the functions of each layer, on the
  data the workloads use (Propfan-14 for the iso path, Engine-8 for
  pathlines, Engine-10 for the cold path, the Engine-5 session for the
  DES, the stock serve app for the served path).  The probes are the
  same whichever workload the run names, so every traced run prints
  every per-layer metric.

All ``*_ms`` kernel metrics are **per op**: the sum over every block
the replayed op touches, so they add up to
``parallel.runner.serial_run_ms`` and compare directly with
``cmd_latency_p50_ms``.  Per-call costs are in ``*_us``.

``PER_LAYER`` is the declared table (unit, better direction, and the
end-to-end metric each one is predicted to move); ``BENCHMARK.json``
lists the same names and ``test_smoke.py`` checks the two agree.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
from typing import Any, Callable

import numpy as np

import harness
from harness import Trace
from workloads import (
    DES_COMMANDS,
    WORKERS,
    ColdExtract,
    DesSession,
    IsoStatic,
    Pathlines,
    ServeHttp,
    write_synthetic,
)

from repro.algorithms.isosurface import active_cell_indices, extract_block_isosurface
from repro.algorithms.lambda2 import lambda2_field
from repro.algorithms.pathlines import BatchPathlineTracer
from repro.core.commands import Command
from repro.des import Environment, Resource
from repro.grids.interpolate import CellLocator
from repro.io import geometry_to_bytes
from repro.obs import to_chrome_trace
from repro.parallel import ParallelExtractor, ShmBlockStore
from repro.serve import FairCommandQueue, ModeledBackend, ServiceProfile, TenantServer
from repro.viz.mesh import TriangleMesh

#: the replayed iso op (mid-range of the iso workloads' isovalues).
REPLAY_ISOVALUE = -2.85

#: name -> (unit, better, what it should move / where it must not).
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "host.cpu_count": ("count", "higher", "context: gates parallel.api.speedup_vs_serial"),
    "host.loadavg_1m": ("count", "lower", "context: contention from outside the run"),
    "host.calib_ms": ("ms", "lower", "context: host drift, never used to rescale"),
    "bench.trace_overhead_ratio": ("ratio", "lower", "traced / untraced p50 of this driver"),
    "trace.spans_per_op": ("count", "lower", "driver spans per op of the traced pass"),
    "trace.op_ms": ("ms", "lower", "mean traced op; base of the trace.share.* ratios, which sum to 1"),
    "trace.share.op": ("ratio", "lower", "driver time inside an op outside any layer call"),
    "trace.share.parallel.api": ("ratio", "lower", "plan + IPC + merge in the parent: p50 on iso_*, pathlines, cold_extract"),
    "trace.share.parallel.pool": ("ratio", "lower", "time covered by worker shares: p50 on iso_*, pathlines, cold_extract"),
    "trace.share.io": ("ratio", "lower", "store open + serialization: p50 on the real path; 0 on des_session, serve_http"),
    "trace.share.core.session": ("ratio", "lower", "p50 on des_session; 0 elsewhere"),
    "trace.share.serve.http": ("ratio", "lower", "p50 on serve_http; 0 elsewhere"),
    "synth.build_level_ms": ("ms", "lower", "setup_s on iso_*, pathlines"),
    "io.write_dataset_s": ("s", "lower", "setup_s on iso_*, pathlines"),
    "io.read_block_ms": ("ms", "lower", "p50 on cold_extract; bypass iso_*"),
    "io.block_buffer_us": ("us", "lower", "p50 on cold_extract; bypass iso_*"),
    "io.geometry_to_bytes_ms": ("ms", "lower", "p50 on iso_*; bypass pathlines, des_session"),
    "io.geometry_mb": ("MB", "lower", "p50 on iso_*; bypass pathlines, des_session"),
    "parallel.shm.from_store_ms": ("ms", "lower", "p50 on cold_extract; setup_s on iso_*"),
    "parallel.shm.attach_ms": ("ms", "lower", "p50 on cold_extract; setup_s on iso_*"),
    "parallel.shm.get_block_us": ("us", "lower", "p50 on iso_*, cold_extract"),
    "parallel.shm.nbytes_mb": ("MB", "lower", "peak_rss_mb on iso_*"),
    "grids.block.upcast_ms": ("ms", "lower", "p50 on iso_*, cold_extract"),
    "grids.locate_many_us_per_pt": ("us", "lower", "p50 on pathlines; bypass iso_*"),
    "algorithms.isosurface.active_cells_ms": ("ms", "lower", "p50, cmds_per_s on iso_*; bypass pathlines"),
    "algorithms.isosurface.extract_block_ms": ("ms", "lower", "p50, cmds_per_s on iso_*; bypass pathlines"),
    "algorithms.isosurface.mcells_per_s": ("1/s", "higher", "p50, cmds_per_s on iso_*; bypass pathlines"),
    "algorithms.isosurface.active_ratio": ("ratio", "lower", "behaviour guard: active / scanned cells"),
    "algorithms.lambda2.field_ms": ("ms", "lower", "p50 on cold_extract; bypass iso_*"),
    "algorithms.pathlines.trace_many_ms": ("ms", "lower", "p50 on pathlines"),
    "algorithms.pathlines.samples_per_s": ("1/s", "higher", "p50 on pathlines"),
    "viz.mesh.merge_ms": ("ms", "lower", "p50 on iso_* (serial in the parent)"),
    "parallel.runner.serial_run_ms": ("ms", "lower", "p50 on iso_*, pathlines"),
    "parallel.runner.overhead_ms": ("ms", "lower", "op-stream interpreter's own cost: p50 on iso_*, pathlines"),
    "parallel.runner.budget_coverage": ("ratio", "higher", "layer sum / serial_run_ms; must stay in 0.90..1.05"),
    "parallel.pool.spawn_first_run_ms": ("ms", "lower", "p50 on cold_extract"),
    "parallel.pool.noop_roundtrip_ms": ("ms", "lower", "p50 on iso_*; p90 on iso_dynamic"),
    "parallel.pool.return_mb_per_s": ("MB/s", "higher", "p50 on iso_*; p90 on iso_dynamic"),
    "parallel.api.run_ms": ("ms", "lower", "p50 on iso_static"),
    "parallel.api.share_imbalance": ("ratio", "lower", "p90 on iso_static"),
    "parallel.api.idle_s_per_cmd": ("s", "lower", "p50 on iso_dynamic"),
    "parallel.api.steals_per_cmd": ("count", "lower", "p50 on iso_dynamic"),
    "parallel.api.n_loads_per_cmd": ("count", "lower", "exact; behaviour guard"),
    "parallel.api.speedup_vs_serial": ("ratio", "higher", "serial_run_ms / run_ms; 0 = not measured (cpu_count < workers)"),
    "parallel.api.dynamic_over_static": ("ratio", "lower", "p50 on iso_dynamic relative to iso_static"),
    "des.kernel.events_per_s": ("1/s", "higher", "cmds_per_s on des_session, serve_http; bypass real path"),
    "dms.requests_per_cmd": ("count", "lower", "behaviour guard: moves simulated seconds only"),
    "dms.l1_hit_ratio": ("ratio", "higher", "behaviour guard: moves simulated seconds only"),
    "dms.prefetch_useful_ratio": ("ratio", "higher", "behaviour guard: moves simulated seconds only"),
    **{
        f"core.session.run_ms.{command}": ("ms", "lower", "p50, cmds_per_s on des_session")
        for command in DES_COMMANDS
    },
    "core.sim_seconds_total": ("sim_s", "lower", "simulated seconds, exact: bit-equal for one seed"),
    "core.sim_s_per_wall_s": ("ratio", "higher", "cmds_per_s on des_session"),
    "obs.spans_per_cmd": ("count", "lower", "bounds what tracing may cost on des_session"),
    "obs.spans_dropped": ("count", "lower", "must be 0"),
    "obs.tracing_overhead_ratio.des_session": ("ratio", "lower", "default / observe=False wall"),
    "obs.tracing_overhead_ratio.iso_static": ("ratio", "lower", "default / observe=False p50"),
    "serve.rest.handle_ms": ("ms", "lower", "p50, p90 on serve_http; bypass everything else"),
    "serve.http.overhead_ms": ("ms", "lower", "p50, p90 on serve_http"),
    "serve.queue.put_get_us": ("us", "lower", "p50 on serve_http"),
    "serve.server.submit_us": ("us", "lower", "p50 on serve_http"),
    "serve.metrics_render_ms.early": ("ms", "lower", "p90 on serve_http (reads beside writes)"),
    "serve.metrics_render_ms.late": ("ms", "lower", "p90 on serve_http; grows with requests served"),
    "serve.rejected_share": ("ratio", "lower", "failed share on serve_http"),
}

#: span kinds whose self time is a share of the traced pass's op time.
TRACE_KINDS = ("op", "parallel.api", "io", "core.session", "serve.http")


class NoopCommand(Command):
    """Driver-local command that plans one empty share per worker and
    emits nothing: what is left is the pool's round trip."""

    name = "bench-noop"

    def plan(self, ctx, group_size):
        return [[] for _ in range(group_size)]

    def run(self, ctx, assignment, worker_index):
        return
        yield  # pragma: no cover - makes this a generator

    def merge(self, payload_lists):
        return None


def traced_pass_metrics(untraced, traced) -> dict[str, dict]:
    """Where one workload's traced pass spent its op time, by layer.

    Worker shares are children of the ``parallel.api`` run span, so the
    time they cover is the pool's and the rest of the span the parent's
    (plan, IPC, merge).  The shares add up to 1.
    """
    n_ops = max(len(traced.latencies_ms), 1)
    own: dict[str, float] = {}
    covered: dict[str, float] = {}
    n_spans = 0
    for trace in traced.traces:
        n_spans += len(trace.tracer)
        for totals, part in zip((own, covered), harness.span_times(trace.tracer)):
            for kind, seconds in part.items():
                totals[kind] = totals.get(kind, 0.0) + seconds
    op_s = own.get("op", 0.0) + covered.get("op", 0.0)
    out = {"trace.spans_per_op": _rec("trace.spans_per_op", n_spans / n_ops),
           "trace.op_ms": _rec("trace.op_ms", 1e3 * op_s / n_ops)}
    for kind in TRACE_KINDS:
        name = f"trace.share.{kind}"
        out[name] = _rec(name, own.get(kind, 0.0) / op_s, base="trace.op_ms")
    out["trace.share.parallel.pool"] = _rec(
        "trace.share.parallel.pool", covered.get("parallel.api", 0.0) / op_s,
        base="trace.op_ms")
    base = harness.percentile(untraced.latencies_ms, 50)
    out["bench.trace_overhead_ratio"] = _rec(
        "bench.trace_overhead_ratio",
        harness.percentile(traced.latencies_ms, 50) / base,
        base=f"untraced p50 {base:.3f} ms",
    )
    return {name: out[name] for name in PER_LAYER if name in out}


def _rec(name: str, value: float, base: str | None = None) -> dict[str, Any]:
    rec = {"value": float(value), "unit": PER_LAYER[name][0]}
    if base:
        rec["base"] = base
    return rec


class LayerProbes:
    """The in-process layer replay; one instance per traced run."""

    def __init__(self, seed: int, workdir: str, quick: bool = False):
        self.seed = seed
        self.workdir = workdir
        #: repetitions of each probe (medians are reported).
        self.reps = 1 if quick else 3
        self.n_runs = 3 if quick else 12
        self.trace = Trace(enabled=True, node=9)
        self.out: dict[str, dict] = {}

    # ------------------------------------------------------------ helpers
    def put(self, name: str, value: float, base: str | None = None) -> None:
        self.out[name] = _rec(name, value, base)

    def timed(self, layer: str, name: str, fn: Callable, *args: Any, **kw: Any):
        """``(result, seconds)`` of one call; the seconds are its span's."""
        result = self.trace.call(layer, name, fn, *args, **kw)
        return result, self.trace.last.duration

    def timed_into(self, acc: dict[str, float], key: str, layer: str, name: str,
                   fn: Callable, *args: Any):
        """Like :meth:`timed`, adding the seconds to ``acc[key]``."""
        result, seconds = self.timed(layer, name, fn, *args)
        acc[key] = acc.get(key, 0.0) + seconds
        return result

    def median_s(self, layer: str, name: str, fn: Callable, *args: Any,
                 reps: int | None = None) -> float:
        return statistics.median(
            self.timed(layer, name, fn, *args)[1]
            for _ in range(reps or self.reps)
        )

    def measure(self) -> dict[str, dict]:
        self.probe_host()
        self.probe_iso_path()
        self.probe_pathlines()
        self.probe_cold_path()
        self.probe_des()
        self.probe_serve()
        return self.out

    # --------------------------------------------------------------- host
    def probe_host(self) -> None:
        host = harness.host_info()
        self.put("host.cpu_count", host["cpu_count"])
        self.put("host.loadavg_1m", host["loadavg_1m"])
        self.put("host.calib_ms", harness.calib_ms())

    # ----------------------------------------------------------- iso path
    def probe_iso_path(self) -> None:
        """Propfan-14: write, share, replay one iso op layer by layer,
        then the same op through the serial runner and the pool."""
        root = os.path.join(self.workdir, "probe-iso")
        dataset = IsoStatic(self.seed, self.workdir).build_dataset()
        with self.trace.op("setup:iso"):
            self.put("synth.build_level_ms", 1e3 * self.median_s(
                "synth", "level", dataset.level, 0))
            store, seconds = self.timed(
                "io", "write_dataset", write_synthetic, root, dataset, 2)
            self.put("io.write_dataset_s", seconds)
            shm = None
            from_store = []
            for _ in range(self.reps):
                if shm is not None:
                    shm.cleanup()
                shm, seconds = self.timed(
                    "parallel.shm", "from_store", ShmBlockStore.from_store, store)
                from_store.append(seconds)
            self.put("parallel.shm.from_store_ms", 1e3 * statistics.median(from_store))
            self.put("parallel.shm.nbytes_mb", shm.nbytes / 1e6)
            manifest = shm.manifest()
            attach = []
            for _ in range(self.reps):
                attached, seconds = self.timed(
                    "parallel.shm", "attach", ShmBlockStore.attach, manifest)
                attached.close()
                attach.append(seconds)
            self.put("parallel.shm.attach_ms", 1e3 * statistics.median(attach))
        try:
            layer_ms = self._replay_iso_op(shm)
            self._iso_runs(shm, layer_ms)
        finally:
            shm.cleanup()
            shutil.rmtree(root, ignore_errors=True)

    def _replay_iso_op(self, shm: ShmBlockStore) -> float:
        """One iso op by hand; returns the layers' summed ms per op."""
        keys = shm.keys()
        iso, scalar = REPLAY_ISOVALUE, "pressure"
        per_rep: list[dict[str, float]] = []
        for _ in range(self.reps):
            acc: dict[str, float] = {}
            fragments = []
            scanned = active_cells = 0
            with self.trace.op("replay:iso-dataman"):
                for t, b in keys:
                    block = self.timed_into(
                        acc, "get", "parallel.shm", "get_block", shm.get_block, t, b)
                    self.timed_into(
                        acc, "upcast", "grids.block", "upcast", _touch, block, scalar)
                    active = self.timed_into(
                        acc, "active", "algorithms.isosurface", "active_cell_indices",
                        active_cell_indices, block, scalar, iso)
                    mesh = self.timed_into(
                        acc, "extract", "algorithms.isosurface", "extract_block_isosurface",
                        extract_block_isosurface, block, scalar, iso, active)
                    scanned += block.n_cells
                    active_cells += len(active)
                    if not mesh.is_empty():
                        fragments.append(mesh)
                merged = self.timed_into(
                    acc, "merge", "viz.mesh", "merge", TriangleMesh.merge, fragments)
                data = self.timed_into(
                    acc, "to_bytes", "io", "geometry_to_bytes", geometry_to_bytes, merged)
            per_rep.append(acc)
        med = _medians(per_rep)
        self.put("parallel.shm.get_block_us", 1e6 * med["get"] / len(keys))
        self.put("grids.block.upcast_ms", 1e3 * med["upcast"])
        self.put("algorithms.isosurface.active_cells_ms", 1e3 * med["active"])
        self.put("algorithms.isosurface.extract_block_ms", 1e3 * med["extract"])
        self.put("algorithms.isosurface.mcells_per_s",
                 scanned / (med["active"] + med["extract"]) / 1e6,
                 base=f"{scanned} cells scanned per op")
        self.put("algorithms.isosurface.active_ratio", active_cells / scanned,
                 base=f"{active_cells} active of {scanned} scanned")
        self.put("viz.mesh.merge_ms", 1e3 * med["merge"])
        self.put("io.geometry_to_bytes_ms", 1e3 * med["to_bytes"])
        self.put("io.geometry_mb", len(data) / 1e6)
        return 1e3 * sum(med[k] for k in ("get", "upcast", "active", "extract", "merge"))

    def _iso_runs(self, shm: ShmBlockStore, layer_ms: float) -> None:
        params = {"scalar": "pressure", "isovalue": REPLAY_ISOVALUE}
        n = self.n_runs

        def runs(ext, count, **kw):
            return [ext.run("iso-dataman", params=params, **kw) for _ in range(count)]

        def p50_ms(results):
            return 1e3 * statistics.median(r.wall_seconds for r in results)

        with self.trace.op("runs:serial"):
            with ParallelExtractor(shm, workers=WORKERS, executor="serial") as ext:
                runs(ext, 1, group_size=1)
                serial_ms = 1e3 * self.median_s(
                    "parallel.runner", "serial_run", ext.run, "iso-dataman",
                    params, 1, reps=max(self.reps, 3))
        self.put("parallel.runner.serial_run_ms", serial_ms)
        self.put("parallel.runner.overhead_ms", serial_ms - layer_ms,
                 base=f"unattributed_ms of serial_run_ms {serial_ms:.3f}")
        self.put("parallel.runner.budget_coverage", layer_ms / serial_ms,
                 base=f"layer sum {layer_ms:.3f} ms / serial_run_ms {serial_ms:.3f}")

        with self.trace.op("runs:process"):
            with ParallelExtractor(shm, workers=WORKERS, executor="process") as ext:
                _, first_s = self.timed(
                    "parallel.pool", "first_run", ext.run, "iso-dataman", params)
                static = runs(ext, n)
                static_ms = p50_ms(static)
                self.put("parallel.pool.spawn_first_run_ms", 1e3 * first_s - static_ms,
                         base=f"steady run {static_ms:.3f} ms")
                self.put("parallel.api.run_ms", static_ms)
                self.put("parallel.api.share_imbalance", statistics.mean(
                    max(r.share_seconds) / statistics.mean(r.share_seconds)
                    for r in static))
                self.put("parallel.api.n_loads_per_cmd",
                         sum(r.n_loads for r in static) / n)
                self.put("parallel.pool.return_mb_per_s", statistics.median(
                    sum(m.nbytes for s in r.shares for m in s.payloads) / 1e6
                    / (r.wall_seconds - max(r.share_seconds))
                    for r in static))
                if (os.cpu_count() or 1) >= WORKERS:
                    self.put("parallel.api.speedup_vs_serial", serial_ms / static_ms,
                             base=f"serial_run_ms {serial_ms:.3f} at {WORKERS} workers")
                else:
                    # Fewer cores than workers cannot show parallelism.
                    self.put("parallel.api.speedup_vs_serial", 0.0,
                             base="null: cpu_count < workers")
                runs(ext, 2, schedule="dynamic")  # warm the cost feedback
                dynamic = runs(ext, n, schedule="dynamic")
                self.put("parallel.api.dynamic_over_static",
                         p50_ms(dynamic) / static_ms,
                         base=f"static p50 {static_ms:.3f} ms")
                self.put("parallel.api.idle_s_per_cmd",
                         sum(r.idle_seconds for r in dynamic) / n)
                self.put("parallel.api.steals_per_cmd",
                         sum(r.steals for r in dynamic) / n)
                noop = NoopCommand()
                ext.run(noop)
                self.put("parallel.pool.noop_roundtrip_ms", 1e3 * self.median_s(
                    "parallel.pool", "noop_roundtrip", ext.run, noop, reps=4 * self.reps))
            with ParallelExtractor(
                shm, workers=WORKERS, executor="process", observe=False
            ) as ext:
                runs(ext, 1)
                quiet_ms = p50_ms(runs(ext, n))
        self.put("obs.tracing_overhead_ratio.iso_static", static_ms / quiet_ms,
                 base=f"observe=False p50 {quiet_ms:.3f} ms")

    # ---------------------------------------------------------- pathlines
    def probe_pathlines(self) -> None:
        root = os.path.join(self.workdir, "probe-path")
        load = Pathlines(self.seed, self.workdir)
        dataset = load.build_dataset()
        store = write_synthetic(root, dataset, load.n_steps)
        try:
            blocks = {
                (t, b): store.read_block(t, b)
                for t in range(load.n_steps) for b in range(store.n_blocks)
            }
            big = max((blocks[0, b] for b in range(store.n_blocks)),
                      key=lambda blk: blk.n_cells)
            lo, hi = big.bounds()
            points = lo + (hi - lo) * np.random.default_rng(
                [self.seed, 7]).random((4096, 3))
            locator = CellLocator(big)
            with self.trace.op("replay:pathlines-dataman"):
                locator.locate_many(points[:8])  # builds the kd-tree
                self.put("grids.locate_many_us_per_pt", 1e6 / len(points) * self.median_s(
                    "grids.interpolate", "locate_many", locator.locate_many, points))
                seconds = []
                for _ in range(self.reps):
                    tracer = BatchPathlineTracer(
                        store.handles(0), store.times, rtol=1e-3, max_steps=400,
                        local_cache_blocks=8)
                    seconds.append(self.timed(
                        "algorithms.pathlines", "trace_many",
                        _drive_tracer, tracer, load.seed_sets[0], blocks)[1])
            med = statistics.median(seconds)
            self.put("algorithms.pathlines.trace_many_ms", 1e3 * med)
            self.put("algorithms.pathlines.samples_per_s", tracer.samples / med,
                     base=f"{tracer.samples} velocity samples per op")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    # ---------------------------------------------------------- cold path
    def probe_cold_path(self) -> None:
        root = os.path.join(self.workdir, "probe-cold")
        load = ColdExtract(self.seed, self.workdir)
        store = write_synthetic(root, load.build_dataset(), load.n_steps)
        keys = [(t, b) for t in range(load.n_steps) for b in range(store.n_blocks)]
        try:
            per_rep: list[dict[str, float]] = []
            with self.trace.op("replay:vortex-dataman"):
                for _ in range(self.reps):
                    acc: dict[str, float] = {}
                    for t, b in keys:
                        self.timed_into(
                            acc, "buffer", "io", "block_buffer", store.block_buffer, t, b
                        ).release()
                        block = self.timed_into(
                            acc, "read", "io", "read_block", store.read_block, t, b)
                        self.timed_into(
                            acc, "lambda2", "algorithms.lambda2", "lambda2_field",
                            lambda2_field, block)
                    per_rep.append(acc)
            med = _medians(per_rep)
            self.put("io.read_block_ms", 1e3 * med["read"])
            self.put("io.block_buffer_us", 1e6 * med["buffer"] / len(keys))
            self.put("algorithms.lambda2.field_ms", 1e3 * med["lambda2"])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    # ---------------------------------------------------------------- DES
    def probe_des(self) -> None:
        with self.trace.op("probe:des.kernel"):
            n_events, seconds = self.timed("des.kernel", "churn", _des_churn)
        self.put("des.kernel.events_per_s", n_events / seconds,
                 base=f"{n_events} yields")
        load = DesSession(self.seed, self.workdir)
        cycles = 1 if self.reps == 1 else 3
        walls: dict[bool, float] = {}
        for observe in (False, True):
            session = load.new_session(observe=observe)
            per_command: dict[str, list[float]] = {c: [] for c in DES_COMMANDS}
            results = []
            with self.trace.op(f"replay:des_session observe={observe}"):
                for cycle in range(cycles):
                    for command in DES_COMMANDS:
                        result, s = self.timed(
                            "core.session", command, session.run, command,
                            load.params_for(command, cycle))
                        per_command[command].append(s)
                        results.append(result)
            walls[observe] = sum(sum(v) for v in per_command.values())
        # The default (observe=True) session ran last: report from it.
        for command, secs in per_command.items():
            self.put(f"core.session.run_ms.{command}", 1e3 * statistics.median(secs))
        sim = sum(r.total_runtime for r in results)
        self.put("core.sim_seconds_total", sim)
        self.put("core.sim_s_per_wall_s", sim / walls[True],
                 base=f"{walls[True]:.3f} wall s")
        stats = session.scheduler.aggregate_dms_stats()
        self.put("dms.requests_per_cmd", stats.requests / len(results))
        self.put("dms.l1_hit_ratio", stats.hits_l1 / max(stats.requests, 1),
                 base=f"{stats.requests} requests")
        self.put("dms.prefetch_useful_ratio",
                 stats.prefetches_useful / max(stats.prefetches_issued, 1),
                 base=f"{stats.prefetches_issued} prefetches issued")
        self.put("obs.spans_per_cmd", sum(len(r.spans) for r in results) / len(results))
        self.put("obs.spans_dropped", session.tracer.dropped)
        self.put("obs.tracing_overhead_ratio.des_session", walls[True] / walls[False],
                 base=f"observe=False {walls[False]:.3f} wall s")

    # -------------------------------------------------------------- serve
    def probe_serve(self) -> None:
        n = 10 if self.reps == 1 else 100
        load = ServeHttp(self.seed, self.workdir)
        load.setup()
        try:
            ops = load.op_stream(0)
            posts = [op for op in (next(ops) for _ in range(2 * n)) if op[0] == "POST"][:n]
            app = load.app

            def render_ms() -> float:
                return 1e3 * self.median_s(
                    "serve.rest", "metrics", app.handle, "GET", "/v1/metrics", None)

            with self.trace.op("replay:serve in-process"):
                handle = []
                for i, (method, path, body) in enumerate(posts):
                    if i == n // 10:
                        self.put("serve.metrics_render_ms.early", render_ms())
                    (status, _), s = self.timed(
                        "serve.rest", "handle", app.handle, method, path, json.loads(body))
                    if status != 200:
                        raise RuntimeError(f"in-process submit returned {status}")
                    handle.append(s)
                self.put("serve.metrics_render_ms.late", render_ms())
            with self.trace.op("replay:serve http"):
                http = [
                    self.timed("serve.http", "request", load.request,
                               load.conns[0], method, path, body)[1]
                    for method, path, body in posts
                ]
            handle_ms = 1e3 * statistics.median(handle)
            # Both legs ran the same ops; the HTTP leg second, on a
            # server that had served n requests more.
            self.put("serve.rest.handle_ms", handle_ms)
            self.put("serve.http.overhead_ms",
                     1e3 * statistics.median(http) - handle_ms,
                     base=f"handle_ms {handle_ms:.3f}")
            states = app.server.tenants.values()
            self.put("serve.rejected_share",
                     sum(s.rejected for s in states) / sum(s.submitted for s in states))
        finally:
            load.teardown()
        with self.trace.op("probe:serve.queue"):
            n_items, seconds = self.timed("serve.queue", "put_get", _queue_churn)
            self.put("serve.queue.put_get_us", 1e6 * seconds / n_items)
            n_items, seconds = self.timed("serve.server", "submit", _submit_churn)
            self.put("serve.server.submit_us", 1e6 * seconds / n_items)


def _medians(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median over the repetitions of one replay."""
    return {k: statistics.median(rep[k] for rep in per_rep) for k in per_rep[0]}


def _touch(block, scalar: str) -> None:
    """First touch of a lazy block: the ``<f4`` -> f8 field upcast."""
    block.field(scalar)
    block.coords


def _drive_tracer(tracer: BatchPathlineTracer, seeds, blocks) -> list:
    """Serve a tracer's block demands from memory until it returns."""
    gen = tracer.trace_many(seeds)
    try:
        request = next(gen)
        while True:
            request = gen.send(blocks[request.time_index, request.block_id])
    except StopIteration as stop:
        return stop.value


def _des_churn(n_procs: int = 32, n_rounds: int = 1500) -> int:
    """Timeout/Process/Resource churn on a bare Environment; returns the
    number of events the processes waited on."""
    env = Environment()
    resource = Resource(env, capacity=4)

    def worker(env, seed):
        state = seed
        for _ in range(n_rounds):
            state = (state * 1103515245 + 12345) % 2147483648
            request = resource.request()
            yield request
            yield env.timeout((state % 997) / 997.0 + 1e-3)
            resource.release(request)
            yield env.timeout(0.0)

    for p in range(n_procs):
        env.process(worker(env, p + 1))
    env.run()
    return n_procs * n_rounds * 3


class _Item:
    """Queue payload (the fair queue tags items with attributes)."""


def _queue_churn(n_tenants: int = 64, per_tenant: int = 40) -> int:
    env = Environment()
    queue = FairCommandQueue(env)
    names = [f"t{i}" for i in range(n_tenants)]
    for i, name in enumerate(names):
        queue.add_tenant(name, weight=1 + i % 4)
    for _ in range(per_tenant):
        for i, name in enumerate(names):
            queue.put(name, i % 3, _Item())
    n = n_tenants * per_tenant
    for _ in range(n):
        queue.get()
    env.run()
    return n


def _submit_churn(n_tenants: int = 16, per_tenant: int = 100) -> int:
    env = Environment()
    server = TenantServer(ModeledBackend(env, slots=4))
    for i in range(n_tenants):
        server.register(f"t{i}", weight=1 + i % 4, max_in_flight=per_tenant)
    service = ServiceProfile(total_s=0.0)
    for _ in range(per_tenant):
        for i in range(n_tenants):
            server.submit(f"t{i}", "noop", service=service)
    env.run()
    return n_tenants * per_tenant


def write_trace(path: str, traces: list[Trace], labels: dict[int, str]) -> int:
    """All driver-side spans as one Chrome ``trace_event`` file."""
    events: list[dict] = []
    for trace in traces:
        events.extend(to_chrome_trace(trace.tracer, node_names=labels)["traceEvents"])
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)
