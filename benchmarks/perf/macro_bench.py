"""Macro-benchmarks: PR 4 engine throughput and PR 5 multicore extraction.

Three wall-clock probes, chosen to exercise the layers the overhaul
touched end to end:

* ``des_events_per_sec`` — synthetic calendar churn: 64 generator
  processes each yield 4000 timeouts with deterministic pseudo-random
  delays, so the heap constantly interleaves.  Measures the raw DES
  kernel (schedule + pop + resume) with nothing else in the way.
* ``replay_cycle_seconds`` — one warm replay of all four commands
  (iso, vortex, pathlines, cutplane) on the small test-suite session
  shape, the same cycle an interactive user replays while steering.
* ``chaos_seconds`` — one seeded chaos run per command, including
  session construction and fault injection: the cost of one cell of
  the robustness matrix in ``tests/faults``.

``BASELINE`` holds the numbers measured on this machine at the commit
*before* the overhaul (20cabb6, "Batched particle tracing"), captured
with this same harness.  ``python benchmarks/perf/macro_bench.py
--json BENCH_PR4.json`` re-measures and emits current numbers,
the recorded baseline, and the speedups side by side.

Run with ``--update-baseline`` only when re-basing on new hardware.

``--suite pr5`` instead benchmarks the multicore extraction subsystem
(:mod:`repro.parallel`): a paper-style vortex-core hunt — a 12-point λ2
threshold sweep plus a whole-level isosurface over a two-timestep
engine dataset.  The *legacy* side runs the only direct path that
existed before PR 5 (eager per-pass block reads, λ2 recomputed from
velocity for every threshold); the *current* side runs
:class:`~repro.parallel.ParallelExtractor` at 4 workers over a
shared-memory block store with λ2 precomputed once.  Both sides are
measured live in the same process, so the reported speedup is
machine-relative, and ``cpu_count`` is recorded: on a single-core box
the win comes from shared residency, lazy ``<f4`` reads and derived-
field reuse; real cores add process fan-out on top.  ``--check``
enforces the 2.5x floor on the sweep; ``--json BENCH_PR5.json`` emits
the report.

Since PR 6 the regression sentry (``python -m repro slo --check
--wall``, :mod:`repro.obs.sentry`) is the canonical CI entry point: it
loads the floors committed inside ``BENCH_PR4.json`` /
``BENCH_PR5.json`` and calls :func:`measure` / :func:`measure_pr5`
here.  The per-suite ``--check`` flags remain for local use.

``--suite pr8`` benchmarks the cluster-scale DMS work: four concurrent
commands over shared propfan timesteps at 8/16/32/64 nodes, cluster
dedup + contention-aware selection against the per-proxy baseline
(floor: >= 2x on total load seconds at 32 nodes); a strategy-crossover
regime table where each of the four loading strategies (fileserver,
node-transfer, collective, direct-disk) wins at least once; the
compression break-even matrix (the 2004 codecs reject compression on
every testbed link, ZSTD-class rates flip the call on the unchanged
60 MB/s fileserver) plus a live decision count; and a golden-trace leg
pinning that fingerprints stay byte-identical with the new features
disabled.  All pr8 metrics except wall-clock are *simulated* seconds,
so the floors are machine-independent.  ``--json BENCH_PR8.json``
emits the report; ``--check`` enforces floors and invariants.

``--suite pr10`` benchmarks the dynamic work-stealing scheduler
(PR 10) on a deliberately skewed propfan isosurface: the chosen
isovalues cross a minority of the 144 blocks concentrated in few
mod-4 residues, so the static round-robin parks the surface on a
subset of the four workers while the rest scan empty blocks.  The
gated cell runs in the DES at 4 *simulated* workers — a cold pass
(fileserver-bound, scheduling can't matter) then a warm interactive
re-extraction where stealing erases the imbalance; ``--check``
enforces dynamic >= 1.3x static on warm simulated seconds, which is
deterministic and machine-independent like the pr8/pr9 floors.  The
wall-clock legs time ``static`` / ``dynamic`` at 1, 2 and 4 real
process workers (recorded with ``cpu_count``, not
floor-gated — a single-core host cannot show process fan-out), pin
triangle counts on every run, check the dynamic merged bytes against
the serial group-1 reference, and re-pin the static golden
fingerprint.  ``--json BENCH_PR10.json`` emits the report.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

# Measured at commit 20cabb6 (pre-overhaul) with this harness; see
# docs/PERFORMANCE.md "Engine throughput".
BASELINE = {
    "des_events_per_sec": 476611.3,
    "replay_cycle_seconds": 0.109984,
    "chaos_seconds": 0.158600,
}

FLOORS = {"des_events_per_sec": 3.0, "replay_cycle_seconds": 2.0}

REPLAY_COMMANDS = [
    ("iso-dataman", {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}),
    ("vortex-dataman", {"threshold": -0.5, "time_range": (0, 1)}),
    (
        "pathlines-dataman",
        {
            "seeds": [[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9], [0.0, -0.4, 1.1]],
            "time_range": (0, 2),
            "max_steps": 60,
        },
    ),
    ("cutplane", {"normal": (0, 0, 1), "offset": 0.8, "time_range": (0, 1)}),
]

CHAOS_SEED = 7


def bench_des_churn(n_procs: int = 64, n_timeouts: int = 4000) -> float:
    """Timeout events processed per wall-clock second on a churning heap.

    Delays are deterministic pseudo-random floats precomputed outside
    the timed region, so the probe measures the kernel (schedule, pop,
    generator resume), not the delay PRNG.  Every delayed yield is
    followed by two zero-delay ones: instrumenting a full four-command
    replay shows immediate events (succeed chains, resource grants,
    process inits, cooperative yields) outnumber genuinely delayed
    timeouts 2:1, so the probe reproduces that measured mix.
    """
    from repro.des import Environment

    env = Environment()

    def delays(seed, n):
        state = seed
        out = []
        for _ in range(n):
            state = (state * 1103515245 + 12345) % 2147483648
            out.append((state % 997) / 997.0 + 1e-3)
        return out

    def churn(env, ds):
        timeout = env.timeout
        for d in ds:
            yield timeout(d)
            yield timeout(0.0)
            yield timeout(0.0)

    for p in range(n_procs):
        env.process(churn(env, delays(p + 1, n_timeouts)))
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return env._seq / elapsed


def bench_replay(cycles: int = 5) -> float:
    """Seconds for one warm replay of all four commands."""
    from repro.faults import chaos_session

    session = chaos_session(n_workers=4)
    for command, params in REPLAY_COMMANDS:  # warm caches / first-touch numpy
        session.run(command, params=dict(params))
    best = float("inf")
    for _ in range(cycles):
        start = time.perf_counter()
        for command, params in REPLAY_COMMANDS:
            session.run(command, params=dict(params))
        best = min(best, time.perf_counter() - start)
    return best


def bench_chaos() -> float:
    """Seconds for one seeded chaos run per command (cold sessions)."""
    from repro.faults import fault_free_runtime, run_chaos

    total = 0.0
    for command, params in REPLAY_COMMANDS:
        horizon = fault_free_runtime(command, params)
        start = time.perf_counter()
        run_chaos(command, params, seed=CHAOS_SEED, horizon=horizon)
        total += time.perf_counter() - start
    return total


def measure() -> dict:
    return {
        "des_events_per_sec": bench_des_churn(),
        "replay_cycle_seconds": bench_replay(),
        "chaos_seconds": bench_chaos(),
    }


# --------------------------------------------------------------- PR 5
#: the vortex-core hunt: λ2 thresholds swept from the field minimum up.
PR5_THRESHOLDS = [round(-3.72 + 0.03 * i, 2) for i in range(12)]
PR5_ISO = {"isovalue": 0.0, "scalar": "pressure"}
PR5_RESOLUTION = 16
PR5_TIMESTEPS = 2
PR5_WORKERS = 4
PR5_FLOORS = {"sweep": 2.5}


def _pr5_store(root):
    from repro.io import write_dataset
    from repro.synth import build_engine

    eng = build_engine(base_resolution=PR5_RESOLUTION, n_timesteps=PR5_TIMESTEPS)
    return write_dataset(
        root,
        [eng.level(t) for t in range(PR5_TIMESTEPS)],
        modeled_shapes=list(eng.spec.modeled_shapes),
        times=eng.spec.times[:PR5_TIMESTEPS],
    )


def bench_pr5_legacy(store) -> tuple[float, list[int]]:
    """The pre-PR-5 direct path: eager reads, λ2 recomputed per pass.

    Returns (seconds, triangle counts per sweep point) — the counts pin
    result equivalence against the parallel side.
    """
    from repro.algorithms.isosurface import (
        active_cell_indices,
        extract_block_isosurface,
    )
    from repro.algorithms.lambda2 import lambda2_field
    from repro.grids.block import StructuredBlock
    from repro.viz.mesh import TriangleMesh

    counts = []
    start = time.perf_counter()
    for threshold in PR5_THRESHOLDS:
        fragments = []
        for t in range(PR5_TIMESTEPS):
            for b in range(store.n_blocks):
                block = store.read_block(t, b)
                lam = lambda2_field(block)
                scratch = StructuredBlock(
                    block.coords, {"lambda2": lam},
                    block_id=block.block_id, time_index=block.time_index,
                )
                active = active_cell_indices(scratch, "lambda2", threshold)
                mesh = extract_block_isosurface(
                    scratch, "lambda2", threshold, cell_indices=active
                )
                if not mesh.is_empty():
                    fragments.append(mesh)
        counts.append(TriangleMesh.merge(fragments).n_triangles)
    fragments = []
    for t in range(PR5_TIMESTEPS):
        for b in range(store.n_blocks):
            block = store.read_block(t, b)
            mesh = extract_block_isosurface(
                block, PR5_ISO["scalar"], PR5_ISO["isovalue"]
            )
            if not mesh.is_empty():
                fragments.append(mesh)
    counts.append(TriangleMesh.merge(fragments).n_triangles)
    return time.perf_counter() - start, counts


def bench_pr5_parallel(store, executor: str) -> tuple[float, list[int]]:
    """The PR-5 path: shm store, λ2 precomputed once, 4-worker sweep."""
    from repro.parallel import ParallelExtractor

    counts = []
    time_range = (0, PR5_TIMESTEPS)
    start = time.perf_counter()
    with ParallelExtractor(
        store, workers=PR5_WORKERS, executor=executor, observe=False
    ) as ext:
        ext.precompute("lambda2")
        for threshold in PR5_THRESHOLDS:
            res = ext.run(
                "vortex-dataman",
                params={"threshold": threshold, "time_range": time_range},
            )
            counts.append(res.result.n_triangles)
        res = ext.run("iso-dataman", params={**PR5_ISO, "time_range": time_range})
        counts.append(res.result.n_triangles)
    return time.perf_counter() - start, counts


def measure_pr5(repeats: int = 2) -> dict:
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        store = _pr5_store(tmp)
        legacy, legacy_counts = min(
            (bench_pr5_legacy(store) for _ in range(repeats)),
            key=lambda pair: pair[0],
        )
        process, process_counts = min(
            (bench_pr5_parallel(store, "process") for _ in range(repeats)),
            key=lambda pair: pair[0],
        )
        serial, serial_counts = min(
            (bench_pr5_parallel(store, "serial") for _ in range(repeats)),
            key=lambda pair: pair[0],
        )
    if not (legacy_counts == process_counts == serial_counts):
        raise AssertionError(
            "parallel sweep results diverged from the legacy path: "
            f"{legacy_counts} vs {process_counts} vs {serial_counts}"
        )
    return {
        "cpu_count": os.cpu_count(),
        "workers": PR5_WORKERS,
        "thresholds": PR5_THRESHOLDS,
        "triangle_counts": legacy_counts,
        "legacy_sweep_seconds": legacy,
        "process_sweep_seconds": process,
        "serial_sweep_seconds": serial,
        "speedup": {
            "sweep": legacy / process,
            "sweep_serial_executor": legacy / serial,
        },
    }


def main_pr5(args) -> int:
    current = measure_pr5()
    ratios = current["speedup"]
    report = {
        "suite": "pr5",
        "machine": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": current["cpu_count"],
        "workers": current["workers"],
        "current": current,
        "floors": PR5_FLOORS,
        "meets_floors": all(ratios[k] >= v for k, v in PR5_FLOORS.items()),
    }
    print(
        f"pr5 sweep ({len(PR5_THRESHOLDS)} thresholds + iso, "
        f"{current['cpu_count']} cpus): "
        f"legacy={current['legacy_sweep_seconds']:.3f}s "
        f"process@{PR5_WORKERS}={current['process_sweep_seconds']:.3f}s "
        f"({ratios['sweep']:.2f}x) "
        f"serial={current['serial_sweep_seconds']:.3f}s "
        f"({ratios['sweep_serial_executor']:.2f}x)"
    )
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    if args.check and not report["meets_floors"]:
        print("FAIL: PR-5 speedup floors not met", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- PR 8
PR8_SCALES = (8, 16, 32, 64)
PR8_CONCURRENT = 4  #: simultaneous commands on shared timesteps
PR8_TIMESTEPS = 2
PR8_FLOORS = {"dedup_load_seconds_32": 2.0}
#: fault-free golden fingerprint for iso-dataman on the chaos-session
#: shape (pinned in tests/faults/test_golden_pins.py): the bench
#: re-derives it with cluster dedup / compression explicitly disabled
#: to prove the new DMS features are byte-exact no-ops when off.
PR8_GOLDEN_ISO = (
    "c090e622e1bb1b96180590c636d8f36d83b521110179418ded458bb8e4521c90"
)
PR8_GOLDEN_PARAMS = {
    "isovalue": -0.3, "scalar": "pressure", "time_range": (0, 2),
}


def _pr8_workload(n_nodes: int, dms_config) -> dict:
    """Four concurrent iso commands over shared propfan timesteps."""
    from repro.bench.calibration import paper_cluster, paper_costs
    from repro.core.session import ViracochaSession
    from repro.synth import build_propfan

    dataset = build_propfan(base_resolution=4, n_timesteps=PR8_TIMESTEPS)
    session = ViracochaSession(
        dataset,
        n_workers=n_nodes,
        cluster_config=paper_cluster(n_nodes),
        costs=paper_costs(),
        dms_config=dms_config,
    )
    group = max(1, n_nodes // PR8_CONCURRENT)
    requests = [
        {
            "command": "iso-dataman",
            "params": {
                "isovalue": -0.3, "scalar": "pressure",
                "time_range": (0, PR8_TIMESTEPS),
            },
            "group_size": group,
            "tenant": f"tenant-{i}",
        }
        for i in range(PR8_CONCURRENT)
    ]
    start = time.perf_counter()
    results = session.run_concurrent(requests)
    wall = time.perf_counter() - start
    agg = session.scheduler.aggregate_dms_stats()
    server = session.scheduler.server
    return {
        "wall_seconds": wall,
        "sim_runtime_seconds": max(r.total_runtime for r in results),
        "load_seconds": sum(agg.load_seconds_by_strategy.values()),
        "load_seconds_by_strategy": {
            k: round(v, 3) for k, v in sorted(agg.load_seconds_by_strategy.items())
        },
        "loads_by_strategy": dict(sorted(agg.loads_by_strategy.items())),
        "fileserver_transfers": session.cluster.fileserver.stats.transfers,
        "dedup_followers": server.dedup_followers,
        "dedup_bytes_saved": server.dedup_bytes_saved,
        "compression_decisions": dict(sorted(agg.compression_decisions.items())),
    }


def bench_pr8_scale() -> dict:
    """Per-proxy baseline vs cluster dedup at every scale.

    The ``replica`` cell additionally grants every node a local dataset
    copy (``DMSConfig.local_replica``), letting direct-disk compete
    live rather than only in the fitness table.
    """
    from repro.dms import DMSConfig

    out = {}
    for n in PR8_SCALES:
        baseline = _pr8_workload(n, DMSConfig())
        dedup = _pr8_workload(
            n, DMSConfig(cluster_dedup=True, contention_aware=True)
        )
        replica = _pr8_workload(
            n,
            DMSConfig(
                cluster_dedup=True, contention_aware=True, local_replica=True
            ),
        )
        out[str(n)] = {
            "baseline": baseline,
            "dedup": dedup,
            "dedup_replica": replica,
            "speedup_load_seconds": (
                baseline["load_seconds"] / max(dedup["load_seconds"], 1e-12)
            ),
            "speedup_sim_runtime": (
                baseline["sim_runtime_seconds"]
                / max(dedup["sim_runtime_seconds"], 1e-12)
            ),
        }
    return out


def bench_pr8_regimes() -> dict:
    """Four bandwidth/contention regimes, one per strategy crossover.

    Deterministic fitness-model evaluation (no simulation): each named
    regime is a :class:`~repro.dms.LoadContext` under which a different
    loading strategy wins the adaptive selection — the table
    docs/PERFORMANCE.md reproduces.
    """
    from repro.dms import AdaptiveSelector, LoadContext

    MB = 1024 * 1024
    nbytes = 2_766_493  # one modeled propfan block (19.5 GB / 50 / 144)
    base = dict(
        key="bench", nbytes=nbytes, requester=0,
        fileserver_bandwidth=60.0 * MB, fileserver_latency=5e-3,
        fabric_bandwidth=800.0 * MB, fabric_latency=30e-6,
        local_disk_bandwidth=40.0 * MB, local_disk_latency=8e-3,
    )
    regimes = {
        # Warm cluster but the fabric is saturated with other tenants'
        # transfers: the healthy shared fileserver beats both the
        # jammed fabric and the slower private disk.
        "jammed-fabric": LoadContext(
            **base, holders=frozenset({3}), local_replica=True,
            fabric_busy=64, fabric_streams=4,
        ),
        # A peer already caches the block and the fabric is idle: the
        # greedy cooperative cache wins outright.
        "warm-peer": LoadContext(**base, holders=frozenset({3})),
        # Cold stampede: many nodes want the same cold block while the
        # fileserver queue builds — one shared read plus a broadcast
        # beats independent queued reads.
        "cold-stampede": LoadContext(
            **base, concurrent_requesters=16, fileserver_queue=12,
        ),
        # Degraded/WAN fileserver with a local dataset replica: the
        # private scratch disk needs no shared link at all.
        "degraded-fileserver": LoadContext(
            **base, local_replica=True, fileserver_queue=8,
        ),
    }
    table = {}
    for name, ctx in regimes.items():
        selector = AdaptiveSelector()
        winner = selector.select(ctx)
        table[name] = {
            "winner": winner.name,
            "fitness": {
                k: round(v, 1) for k, v in sorted(selector.last_fitness.items())
            },
        }
    return table


def bench_pr8_compression() -> dict:
    """Break-even matrix plus a live decision count.

    The model table needs no simulation; the live cell runs one iso
    command with ZSTD wired in and reports the per-transfer decisions
    the proxies actually made (compressed cold reads off the 60 MB/s
    fileserver, raw node-transfers on the 800 MB/s fabric).
    """
    from repro.dms import DMSConfig, GZIP_2004, LZO_2004, ZSTD_2020
    from repro.faults import chaos_session

    MB = 1024 * 1024
    nbytes = 2_766_493  # one modeled propfan block
    links = {
        "fileserver": (60.0 * MB, 5e-3),
        "fabric": (800.0 * MB, 30e-6),
    }
    matrix = {}
    for codec in (GZIP_2004, LZO_2004, ZSTD_2020):
        matrix[codec.name] = {
            "breakeven_mb_per_s": round(codec.breakeven_bandwidth() / 1e6, 1),
            "decisions": {
                link: (
                    "compress"
                    if codec.worthwhile(nbytes, bandwidth, latency)
                    else "raw"
                )
                for link, (bandwidth, latency) in links.items()
            },
        }
    # Two concurrent half-size groups over the same timesteps, so the
    # run mixes cold fileserver reads (compressed) with cross-group
    # fabric transfers (raw) — both decision branches fire.
    session = chaos_session(dms_config=DMSConfig(compression=ZSTD_2020))
    session.run_concurrent([
        {
            "command": "iso-dataman",
            "params": dict(PR8_GOLDEN_PARAMS),
            "group_size": 2,
            "tenant": f"tenant-{i}",
        }
        for i in range(2)
    ])
    agg = session.scheduler.aggregate_dms_stats()
    return {
        "model": matrix,
        "live_zstd_decisions": dict(sorted(agg.compression_decisions.items())),
        "live_zstd_wire_bytes_saved": agg.compression_bytes_saved,
        "live_zstd_codec_seconds": round(agg.compression_seconds, 4),
    }


def bench_pr8_golden() -> dict:
    """Fingerprint the fault-free iso run with the new knobs disabled."""
    from repro.dms import DMSConfig
    from repro.faults import chaos_session
    from repro.faults.chaos import trace_fingerprint

    session = chaos_session(
        dms_config=DMSConfig(
            cluster_dedup=False, compression=None, contention_aware=False
        )
    )
    result = session.run("iso-dataman", params=dict(PR8_GOLDEN_PARAMS))
    fingerprint = trace_fingerprint(result)
    return {
        "fingerprint": fingerprint,
        "pinned": PR8_GOLDEN_ISO,
        "matches_pin": fingerprint == PR8_GOLDEN_ISO,
    }


def measure_pr8() -> dict:
    return {
        "scale": bench_pr8_scale(),
        "regimes": bench_pr8_regimes(),
        "compression": bench_pr8_compression(),
        "golden": bench_pr8_golden(),
    }


def pr8_invariants(current: dict) -> dict:
    """The pass/fail ledger ``--check`` enforces (all simulated-time
    or model-level facts, so they hold on any machine)."""
    regimes = current["regimes"]
    winners = {cell["winner"] for cell in regimes.values()}
    zstd = current["compression"]["model"]["zstd"]["decisions"]
    gzip_cells = current["compression"]["model"]["gzip"]["decisions"]
    live = current["compression"]["live_zstd_decisions"]
    at32 = current["scale"]["32"]
    return {
        "dedup_load_seconds_32": (
            at32["speedup_load_seconds"] >= PR8_FLOORS["dedup_load_seconds_32"]
        ),
        "every_strategy_wins_a_regime": winners == {
            "fileserver", "node-transfer", "collective", "direct-disk"
        },
        "zstd_flips_on_fileserver_only": (
            zstd == {"fileserver": "compress", "fabric": "raw"}
        ),
        "gzip_raw_everywhere": (
            gzip_cells == {"fileserver": "raw", "fabric": "raw"}
        ),
        "live_decisions_split": (
            live.get("compress", 0) > 0 and live.get("raw", 0) > 0
        ),
        "golden_fingerprint_matches": current["golden"]["matches_pin"],
    }


def main_pr8(args) -> int:
    current = measure_pr8()
    invariants = pr8_invariants(current)
    report = {
        "suite": "pr8",
        "machine": platform.platform(),
        "python": platform.python_version(),
        "scales": list(PR8_SCALES),
        "concurrent_commands": PR8_CONCURRENT,
        "current": current,
        "floors": PR8_FLOORS,
        "invariants": invariants,
        "meets_floors": all(invariants.values()),
    }
    for n in PR8_SCALES:
        cell = current["scale"][str(n)]
        print(
            f"pr8 scale {n:>2d}: baseline load "
            f"{cell['baseline']['load_seconds']:.0f}s(sim) "
            f"dedup {cell['dedup']['load_seconds']:.0f}s(sim) "
            f"-> {cell['speedup_load_seconds']:.2f}x load, "
            f"{cell['speedup_sim_runtime']:.2f}x runtime"
        )
    for name, cell in current["regimes"].items():
        print(f"pr8 regime {name:<20s} -> {cell['winner']}")
    live = current["compression"]["live_zstd_decisions"]
    print(
        f"pr8 compression: zstd live decisions {live}, "
        f"golden match {current['golden']['matches_pin']}"
    )
    for name, ok in invariants.items():
        if not ok:
            print(f"pr8 invariant FAILED: {name}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    if args.check and not report["meets_floors"]:
        print("FAIL: PR-8 floors/invariants not met", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- PR 9
PR9_RESOLUTION = 8   #: blocks must be coarsenable (3+ pyramid levels)
PR9_TIMESTEPS = 2
PR9_WORKERS = 8
#: the propfan pressure field spans [-3.70, -0.44]; -1.0 cuts a real
#: surface through most blocks, -0.8 is the interactive re-extraction.
PR9_PARAMS = {
    "isovalue": -1.0, "scalar": "pressure",
    "time_range": (0, PR9_TIMESTEPS), "max_levels": 4,
}
PR9_WARM_ISOVALUE = -0.8
PR9_FLOORS = {"ttfa_speedup": 5.0}


def _pr9_session():
    from repro.bench.calibration import paper_cluster, paper_costs
    from repro.core.session import ViracochaSession
    from repro.synth import build_propfan

    dataset = build_propfan(
        base_resolution=PR9_RESOLUTION, n_timesteps=PR9_TIMESTEPS
    )
    return ViracochaSession(
        dataset,
        n_workers=PR9_WORKERS,
        cluster_config=paper_cluster(PR9_WORKERS),
        costs=paper_costs(),
    )


def bench_pr9_ttfa() -> dict:
    """Time-to-first-approximation, level-major vs depth-first.

    Each schedule gets a fresh session and runs the progressive command
    twice at propfan scale: a cold pass (disk loads gate both schedules
    alike) and a warm pass at a new isovalue — the paper's interactive
    re-extraction, where the DMS-cached pyramids make scheduling the
    whole difference.  All TTFA numbers are *simulated* seconds, so the
    floor is machine-independent.
    """
    out: dict = {}
    for schedule in ("level-major", "depth-first"):
        session = _pr9_session()
        cold = session.run(
            "iso-progressive", params=dict(PR9_PARAMS, schedule=schedule)
        )
        warm = session.run(
            "iso-progressive",
            params=dict(PR9_PARAMS, schedule=schedule,
                        isovalue=PR9_WARM_ISOVALUE),
        )
        agg = session.scheduler.aggregate_dms_stats()
        out[schedule] = {
            "ttfa_cold_s": cold.ttfa_s,
            "ttfa_warm_s": warm.ttfa_s,
            "runtime_cold_s": cold.total_runtime,
            "runtime_warm_s": warm.total_runtime,
            "pyramid_cache_hits": agg.derived_hits_l1 + agg.derived_hits_l2,
            "pyramid_cache_misses": agg.derived_misses,
        }
    lm, df = out["level-major"], out["depth-first"]
    out["ttfa_speedup"] = df["ttfa_warm_s"] / max(lm["ttfa_warm_s"], 1e-12)
    out["ttfa_speedup_cold"] = df["ttfa_cold_s"] / max(lm["ttfa_cold_s"], 1e-12)
    return out


def bench_pr9_equivalence() -> dict:
    """Finest-level progressive geometry vs plain iso, byte for byte.

    Both commands run through :class:`~repro.parallel.ParallelExtractor`
    (real numerics, process executor) over the same written propfan
    store; the progressive merge selects the finest level per block, so
    vertices, triangle count and attributes must match plain
    ``iso-dataman`` exactly.
    """
    import tempfile

    import numpy as np

    from repro.io import write_dataset
    from repro.parallel import ParallelExtractor
    from repro.synth import build_propfan

    pf = build_propfan(
        base_resolution=PR9_RESOLUTION, n_timesteps=PR9_TIMESTEPS
    )
    iso_params = {
        k: PR9_PARAMS[k] for k in ("isovalue", "scalar", "time_range")
    }
    with tempfile.TemporaryDirectory() as tmp:
        store = write_dataset(
            tmp,
            [pf.level(t) for t in range(PR9_TIMESTEPS)],
            modeled_shapes=list(pf.spec.modeled_shapes),
            times=pf.spec.times[:PR9_TIMESTEPS],
        )
        with ParallelExtractor(
            store, workers=4, executor="process", observe=False
        ) as ext:
            iso = ext.run("iso-dataman", params=dict(iso_params)).result
            prog = ext.run("iso-progressive", params=dict(PR9_PARAMS)).result
    identical = (
        iso.vertices.tobytes() == prog.vertices.tobytes()
        and sorted(iso.attributes) == sorted(prog.attributes)
        and all(
            iso.attributes[k].tobytes() == prog.attributes[k].tobytes()
            for k in iso.attributes
        )
    )
    return {
        "n_triangles_iso": iso.n_triangles,
        "n_triangles_progressive_finest": prog.n_triangles,
        "byte_identical": identical,
    }


def measure_pr9() -> dict:
    return {
        "ttfa": bench_pr9_ttfa(),
        "equivalence": bench_pr9_equivalence(),
        "golden": bench_pr8_golden(),
    }


def pr9_invariants(current: dict) -> dict:
    """The pass/fail ledger ``--check`` enforces (simulated-time and
    exact-geometry facts, so they hold on any machine)."""
    return {
        "ttfa_speedup": (
            current["ttfa"]["ttfa_speedup"] >= PR9_FLOORS["ttfa_speedup"]
        ),
        "finest_equals_iso": current["equivalence"]["byte_identical"],
        "golden_fingerprint_matches": current["golden"]["matches_pin"],
    }


def main_pr9(args) -> int:
    current = measure_pr9()
    invariants = pr9_invariants(current)
    report = {
        "suite": "pr9",
        "machine": platform.platform(),
        "python": platform.python_version(),
        "resolution": PR9_RESOLUTION,
        "timesteps": PR9_TIMESTEPS,
        "workers": PR9_WORKERS,
        "current": current,
        "floors": PR9_FLOORS,
        "invariants": invariants,
        "meets_floors": all(invariants.values()),
    }
    ttfa = current["ttfa"]
    for schedule in ("level-major", "depth-first"):
        cell = ttfa[schedule]
        print(
            f"pr9 {schedule:<12s} TTFA cold {cell['ttfa_cold_s']:.1f}s(sim) "
            f"warm {cell['ttfa_warm_s']:.2f}s(sim)  "
            f"pyramid cache {cell['pyramid_cache_hits']} hits / "
            f"{cell['pyramid_cache_misses']} misses"
        )
    print(
        f"pr9 warm TTFA speedup {ttfa['ttfa_speedup']:.1f}x "
        f"(floor {PR9_FLOORS['ttfa_speedup']}x), "
        f"cold {ttfa['ttfa_speedup_cold']:.2f}x"
    )
    eq = current["equivalence"]
    print(
        f"pr9 finest-vs-iso: {eq['n_triangles_progressive_finest']} vs "
        f"{eq['n_triangles_iso']} triangles, byte-identical "
        f"{eq['byte_identical']}, golden match "
        f"{current['golden']['matches_pin']}"
    )
    for name, ok in invariants.items():
        if not ok:
            print(f"pr9 invariant FAILED: {name}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    if args.check and not report["meets_floors"]:
        print("FAIL: PR-9 floors/invariants not met", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- PR 10
PR10_RESOLUTION = 24  #: heavy enough that triangulation dominates the scan
PR10_TIMESTEPS = 2
PR10_WORKERS = (1, 2, 4)
#: the propfan pressure field spans [-3.70, -0.44]; -2.8 crosses only
#: 24 of the 144 blocks, every one with id ≡ 1 or 2 (mod 4).  144 is a
#: multiple of 4, so the static round-robin lands both timesteps of a
#: heavy block on the same worker: workers 1 and 2 carry the entire
#: surface while 0 and 3 run nothing but empty scans — the skewed cell
#: work stealing exists to fix.
PR10_ISO = {"isovalue": -2.8, "scalar": "pressure"}
PR10_SCHEDULES = ("static", "dynamic")
PR10_REPEATS = 2
#: the gated skewed cell runs in the DES at 4 *simulated* workers (so
#: the floor is machine-independent, like the pr8/pr9 floors — the
#:  wall-clock legs above it are recorded but can only show real
#: speedup when the host actually has >= 4 cores).  base_resolution 4
#: makes the crossing layer a third of each block, so triangulation
#: (400/cell on active cells) dominates the uniform scan (30/cell) in
#: crossed blocks; the warm isovalue -2.45 concentrates the active
#: cells in few mod-4 residues, the worst case for round-robin.
PR10_SIM_RESOLUTION = 4
PR10_SIM_WORKERS = 4
PR10_SIM_COLD_ISOVALUE = -3.0
PR10_SIM_WARM_ISOVALUE = -2.45
PR10_SIM_STEAL_BATCH = 1
PR10_FLOORS = {"dynamic_speedup_4w": 1.3}


def _pr10_store(root):
    from repro.io import write_dataset
    from repro.synth import build_propfan

    pf = build_propfan(
        base_resolution=PR10_RESOLUTION, n_timesteps=PR10_TIMESTEPS
    )
    return write_dataset(
        root,
        [pf.level(t) for t in range(PR10_TIMESTEPS)],
        modeled_shapes=list(pf.spec.modeled_shapes),
        times=pf.spec.times[:PR10_TIMESTEPS],
    )


def _pr10_serial_reference(store) -> tuple[bytes, int]:
    from repro.parallel import ParallelExtractor

    params = {**PR10_ISO, "time_range": (0, PR10_TIMESTEPS)}
    with ParallelExtractor(
        store, workers=1, executor="serial", observe=False
    ) as ext:
        mesh = ext.run("iso-dataman", params=params).result
    return mesh.vertices.tobytes() + mesh.triangles.tobytes(), mesh.n_triangles


def bench_pr10_schedules(store) -> dict:
    """The skewed-propfan iso cell: every schedule at 1/2/4 workers.

    Each (schedule, workers) leg gets a fresh pool; one warm-up run
    absorbs process spawn and seeds the cost-feedback profile, then the
    timed repeats take the minimum — so the dynamic numbers include the
    measured-cost LPT reorder a second interactive extraction would get.
    Triangle counts are pinned against the serial reference on every
    single run; the dynamic schedules are additionally checked
    byte-identical in :func:`bench_pr10_equivalence`.
    """
    from repro.parallel import ParallelExtractor

    params = {**PR10_ISO, "time_range": (0, PR10_TIMESTEPS)}
    ref_bytes, ref_triangles = _pr10_serial_reference(store)
    cells: dict = {}
    for n_workers in PR10_WORKERS:
        for schedule in PR10_SCHEDULES:
            sched_arg = None if schedule == "static" else schedule
            with ParallelExtractor(
                store, workers=n_workers, executor="process", observe=False
            ) as ext:
                best = None
                steals = idle = 0
                for rep in range(PR10_REPEATS + 1):
                    start = time.perf_counter()
                    res = ext.run(
                        "iso-dataman", params=dict(params), schedule=sched_arg
                    )
                    elapsed = time.perf_counter() - start
                    if res.result.n_triangles != ref_triangles:
                        raise AssertionError(
                            f"{schedule}@{n_workers}w produced "
                            f"{res.result.n_triangles} triangles, serial "
                            f"reference has {ref_triangles}"
                        )
                    if rep == 0:
                        continue  # warm-up: pool spawn + cost feedback
                    if best is None or elapsed < best:
                        best = elapsed
                        steals = res.steals
                        idle = res.idle_seconds
            cells[f"{schedule}_{n_workers}w"] = {
                "seconds": best,
                "steals": steals,
                "idle_seconds": idle,
            }
    out: dict = {"serial_triangles": ref_triangles, "cells": cells}
    out["speedup"] = {
        f"dynamic_speedup_{n}w": (
            cells[f"static_{n}w"]["seconds"]
            / max(cells[f"dynamic_{n}w"]["seconds"], 1e-12)
        )
        for n in PR10_WORKERS
    }
    return out


def bench_pr10_equivalence(store) -> dict:
    """Merged output of the dynamic schedule, byte for byte.

    Canonical-order payload reassembly means a stolen task lands in the
    same merge slot it would occupy serially, so dynamic output at any
    worker count must equal the serial group-1 bytes exactly.  (Static
    at group > 1 flattens shares round-robin — a different but equally
    deterministic merge order — so it pins triangle *counts* instead;
    that check runs on every timed rep in :func:`bench_pr10_schedules`.)
    """
    from repro.parallel import ParallelExtractor

    params = {**PR10_ISO, "time_range": (0, PR10_TIMESTEPS)}
    ref_bytes, ref_triangles = _pr10_serial_reference(store)
    out: dict = {"serial_triangles": ref_triangles}
    for n_workers in PR10_WORKERS:
        with ParallelExtractor(
            store, workers=n_workers, executor="process", observe=False
        ) as ext:
            mesh = ext.run(
                "iso-dataman", params=dict(params), schedule="dynamic"
            ).result
        out[f"dynamic_{n_workers}w_byte_identical"] = (
            mesh.vertices.tobytes() + mesh.triangles.tobytes() == ref_bytes
        )
    return out


def bench_pr10_simulated() -> dict:
    """The gated skewed iso cell: DES warm re-extraction, 4 workers.

    Each schedule gets a fresh session and runs the skewed propfan iso
    twice: a cold pass (compulsory fileserver loads gate every schedule
    alike, so scheduling cannot matter) and a warm pass at a new
    isovalue — the paper's interactive re-extraction, where the cached
    blocks make compute dominant and the round-robin skew costs the
    static schedule two stalled workers.  All numbers are *simulated*
    seconds: deterministic, so the 1.3x floor holds on any host.  A
    ``group_size=1`` run pins the canonical merge bytes the dynamic
    schedule must reproduce exactly (static at group > 1 flattens
    shares round-robin, so it pins the triangle count instead).
    """
    from repro.bench.calibration import paper_cluster, paper_costs
    from repro.core.session import ViracochaSession
    from repro.synth import build_propfan

    def session():
        dataset = build_propfan(
            base_resolution=PR10_SIM_RESOLUTION, n_timesteps=PR10_TIMESTEPS
        )
        return ViracochaSession(
            dataset,
            n_workers=PR10_SIM_WORKERS,
            cluster_config=paper_cluster(PR10_SIM_WORKERS),
            costs=paper_costs(),
        )

    base = {"scalar": "pressure", "time_range": (0, PR10_TIMESTEPS)}
    ref = session().run(
        "iso-dataman",
        params=dict(base, isovalue=PR10_SIM_WARM_ISOVALUE),
        group_size=1,
    ).geometry
    ref_bytes = ref.vertices.tobytes() + ref.triangles.tobytes()

    out: dict = {"serial_triangles": ref.n_triangles}
    for schedule in PR10_SCHEDULES:
        params = dict(base)
        if schedule != "static":
            params["schedule"] = schedule
            params["steal_batch"] = PR10_SIM_STEAL_BATCH
        sess = session()
        cold = sess.run(
            "iso-dataman",
            params=dict(params, isovalue=PR10_SIM_COLD_ISOVALUE),
            group_size=PR10_SIM_WORKERS,
        )
        warm = sess.run(
            "iso-dataman",
            params=dict(params, isovalue=PR10_SIM_WARM_ISOVALUE),
            group_size=PR10_SIM_WORKERS,
        )
        record = sess.scheduler.history[-1]
        geom = warm.geometry
        out[schedule] = {
            "cold_s": cold.total_runtime,
            "warm_s": warm.total_runtime,
            "steals": record.steals,
            "idle_seconds": record.idle_seconds,
            "triangles": geom.n_triangles,
            "byte_identical": (
                geom.vertices.tobytes() + geom.triangles.tobytes()
                == ref_bytes
            ),
        }
    out["dynamic_speedup_4w"] = (
        out["static"]["warm_s"] / max(out["dynamic"]["warm_s"], 1e-12)
    )
    return out


def measure_pr10() -> dict:
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        store = _pr10_store(tmp)
        wall = bench_pr10_schedules(store)
        equivalence = bench_pr10_equivalence(store)
    return {
        "cpu_count": os.cpu_count(),
        "simulated": bench_pr10_simulated(),
        "wall": wall,
        "equivalence": equivalence,
        "golden": bench_pr8_golden(),
    }


def pr10_invariants(current: dict) -> dict:
    """The pass/fail ledger ``--check`` enforces.

    The speedup floor is on *simulated* seconds, so it is exact and
    machine-independent; the wall-clock legs pin triangle counts and
    bytes (equality facts) but their timings are recorded, not gated —
    a single-core host cannot show real process fan-out.
    """
    sim = current["simulated"]
    return {
        "dynamic_speedup_4w": (
            sim["dynamic_speedup_4w"] >= PR10_FLOORS["dynamic_speedup_4w"]
        ),
        "steals_observed_4w": sim["dynamic"]["steals"] > 0,
        # Canonical-order reassembly: only the dynamic schedule promises
        # group-1 bytes (static at group > 1 flattens shares round-robin);
        # static still must produce the same triangle count.
        "simulated_byte_identical": sim["dynamic"]["byte_identical"],
        "simulated_static_counts_match": (
            sim["static"]["triangles"] == sim["serial_triangles"]
        ),
        "dynamic_byte_identical": all(
            v for k, v in current["equivalence"].items()
            if k.endswith("_byte_identical")
        ),
        "golden_fingerprint_matches": current["golden"]["matches_pin"],
    }


def main_pr10(args) -> int:
    current = measure_pr10()
    invariants = pr10_invariants(current)
    report = {
        "suite": "pr10",
        "machine": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": current["cpu_count"],
        "resolution": PR10_RESOLUTION,
        "timesteps": PR10_TIMESTEPS,
        "isovalue": PR10_ISO["isovalue"],
        "workers": list(PR10_WORKERS),
        "current": current,
        "floors": PR10_FLOORS,
        "invariants": invariants,
        "meets_floors": all(invariants.values()),
    }
    sim = current["simulated"]
    for s in PR10_SCHEDULES:
        cell = sim[s]
        print(
            f"pr10 sim {s:<16s} cold {cell['cold_s']:8.1f}s(sim) "
            f"warm {cell['warm_s']:7.1f}s(sim)  steals={cell['steals']} "
            f"idle={cell['idle_seconds']:.1f}s(sim)"
        )
    print(
        f"pr10 sim dynamic speedup @{PR10_SIM_WORKERS}w "
        f"{sim['dynamic_speedup_4w']:.2f}x "
        f"(floor {PR10_FLOORS['dynamic_speedup_4w']}x)"
    )
    cells = current["wall"]["cells"]
    for n in PR10_WORKERS:
        row = "  ".join(
            f"{s}={cells[f'{s}_{n}w']['seconds']:.3f}s"
            for s in PR10_SCHEDULES
        )
        print(
            f"pr10 wall {n}w ({current['cpu_count']} cpus): {row}  "
            f"(dynamic steals={cells[f'dynamic_{n}w']['steals']}, "
            f"static idle={cells[f'static_{n}w']['idle_seconds']:.3f}s "
            f"-> {cells[f'dynamic_{n}w']['idle_seconds']:.3f}s)"
        )
    print(
        f"pr10 byte-identical {invariants['dynamic_byte_identical']}, "
        f"golden match {current['golden']['matches_pin']}"
    )
    for name, ok in invariants.items():
        if not ok:
            print(f"pr10 invariant FAILED: {name}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    if args.check and not report["meets_floors"]:
        print("FAIL: PR-10 floors/invariants not met", file=sys.stderr)
        return 1
    return 0


def speedups(current: dict) -> dict:
    out = {}
    for key, base in BASELINE.items():
        now = current[key]
        # events/sec is higher-is-better; the wall-clock probes lower.
        out[key] = now / base if key.endswith("per_sec") else base / now
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="write BENCH_PR4.json here")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the PR-4 speedup floors hold",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="print a BASELINE dict for re-basing on new hardware",
    )
    parser.add_argument(
        "--suite", choices=("pr4", "pr5", "pr8", "pr9", "pr10"),
        default="pr4",
        help="pr4: engine throughput vs pinned baseline; "
        "pr5: multicore extraction vs the legacy serial path; "
        "pr8: cluster-scale DMS (dedup, compression, strategy crossover); "
        "pr9: progressive LOD streaming TTFA vs depth-first; "
        "pr10: dynamic work-stealing vs static round-robin on a "
        "skewed propfan isosurface",
    )
    args = parser.parse_args(argv)

    if args.suite == "pr5":
        return main_pr5(args)
    if args.suite == "pr8":
        return main_pr8(args)
    if args.suite == "pr9":
        return main_pr9(args)
    if args.suite == "pr10":
        return main_pr10(args)
    current = measure()
    if args.update_baseline:
        print("BASELINE =", json.dumps(current, indent=4))
        return 0

    ratios = speedups(current)
    report = {
        "machine": platform.platform(),
        "python": platform.python_version(),
        "baseline_commit": "20cabb6",
        "baseline": BASELINE,
        "current": current,
        "speedup": ratios,
        "floors": FLOORS,
        "meets_floors": all(ratios[k] >= v for k, v in FLOORS.items()),
    }
    for key in BASELINE:
        print(
            f"{key:24s} baseline={BASELINE[key]:<12.5g} "
            f"current={current[key]:<12.5g} speedup={ratios[key]:.2f}x"
        )
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    if args.check and not report["meets_floors"]:
        print("FAIL: speedup floors not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
