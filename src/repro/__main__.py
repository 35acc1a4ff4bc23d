"""Command-line entry point: ``python -m repro <verb> [args]``.

``trace`` runs one command on a small simulated cluster and exports a
Chrome ``trace_event`` JSON (open in Perfetto / about:tracing) plus an
ASCII timeline; ``stats`` prints the unified metrics table (cache hit
rate, prefetch accuracy, latency histograms); ``profile`` replays a
command under ``cProfile`` and prints the top hotspots so perf work
starts from evidence.  ``critical-path`` attributes one command's wall
clock to phases (queue/load/compute/merge/stream/recovery) along the
span DAG's critical path; ``slo`` evaluates the paper's 100 ms
interaction criterion as declarative SLOs over the sentry workload and,
with ``--check``, gates against the committed baseline
(``sentry_baseline.json``) — the CI regression sentry.  ``loadtest``
soaks the multi-tenant serving layer with thousands of simulated
tenants in pure simulated time (``--replay`` gates on byte-identical
fingerprints); ``serve`` boots the HTTP/REST facade over a real
session.  ``<cmd>`` is a registered command name or one of the aliases
iso, vortex, pathlines, cutplane.
"""

from __future__ import annotations

import re
import sys

#: one-line usage per verb, shown for ``<verb> --help``.
USAGE = {
    "report": "python -m repro report [fig6 fig14 ...] [--json FILE]",
    "figures": "python -m repro figures [fig6 ...]",
    "ablations": "python -m repro ablations [replacement ...]",
    "commands": "python -m repro commands",
    "taxonomy": "python -m repro taxonomy",
    "export": "python -m repro export <engine|propfan> <dir> [steps] [resolution]",
    "info": "python -m repro info <engine|propfan|path-to-store> [time_index]",
    "trace": (
        "python -m repro trace <cmd> [--out run.json] [--workers N] "
        "[--dataset engine|propfan] [--timeline]"
    ),
    "stats": (
        "python -m repro stats <cmd> [--workers N] "
        "[--dataset engine|propfan] [--prometheus]"
    ),
    "profile": (
        "python -m repro profile <cmd> [--top N] [--sort cumulative|tottime] "
        "[--workers N] [--dataset engine|propfan] [--cold]"
    ),
    "extract": (
        "python -m repro extract <cmd> [--data engine|propfan|path-to-store] "
        "[--workers N] [--executor serial|process] "
        "[--schedule static|dynamic] [--precompute] "
        "[--flame FILE]"
    ),
    "critical-path": (
        "python -m repro critical-path <cmd> [--data engine|propfan] "
        "[--workers N] [--warm] [--path]"
    ),
    "slo": (
        "python -m repro slo [--data engine|propfan] [--workers N] "
        "[--repeats N] [--check] [--json] [--baseline FILE] "
        "[--update-baseline]"
    ),
    "loadtest": (
        "python -m repro loadtest [--tenants N] [--seed N] [--requests N] "
        "[--rate HZ] [--arrival poisson|bursty] [--slots N] "
        "[--cancel-frac F] [--priority-frac F] [--max-in-flight N] "
        "[--replay] [--json] [--out FILE]"
    ),
    "serve": (
        "python -m repro serve [--host HOST] [--port N] "
        "[--data engine|propfan] [--workers N] [--slots N]"
    ),
}

#: ``repro --help``: the docstring's title, one usage line per verb,
#: then the docstring's prose.
_title, _prose = __doc__.split("\n\n", 1)
__doc__ = "\n\n".join([
    _title, "Usage::", "\n".join(f"    {line}" for line in USAGE.values()),
    _prose,
])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in {"-h", "--help"}:
        print(__doc__)
        return 0
    mode, args = argv[0], argv[1:]
    if mode in USAGE and any(a in {"-h", "--help"} for a in args):
        print(f"usage: {USAGE[mode]}")
        return 0
    if mode == "report":
        from .bench.report import main as report_main

        return report_main(args)
    if mode == "figures":
        from .bench.figures import main as figures_main

        return figures_main(args)
    if mode == "ablations":
        from .bench.ablations import ALL_ABLATIONS
        from .bench.report import format_result

        names = args or list(ALL_ABLATIONS)
        unknown = [n for n in names if n not in ALL_ABLATIONS]
        if unknown:
            print(f"unknown ablations {unknown}; known: {sorted(ALL_ABLATIONS)}")
            return 2
        for name in names:
            print(format_result(ALL_ABLATIONS[name]()))
            print()
        return 0
    if mode == "commands":
        from .commands import default_registry

        for name in default_registry().names():
            print(name)
        return 0
    if mode == "taxonomy":
        from .core.classification import all_assessments, format_taxonomy

        print(format_taxonomy())
        print()
        for a in all_assessments():
            tags = []
            if a.reduces_total_runtime:
                tags.append("runtime")
            if a.reduces_latency:
                tags.append("latency")
            print(f"{a.command:20s} [{', '.join(tags) or 'baseline'}] {a.notes}")
        return 0
    if mode == "export":
        if len(args) < 2:
            print(
                "usage: python -m repro export <engine|propfan> <dir> "
                "[steps] [resolution]"
            )
            return 2
        name, target = args[0], args[1]
        steps = int(args[2]) if len(args) > 2 else 4
        resolution = int(args[3]) if len(args) > 3 else 5
        from .io import write_dataset
        from .synth import build_engine, build_propfan

        builders = {"engine": build_engine, "propfan": build_propfan}
        if name not in builders:
            print(f"unknown dataset {name!r}; choose engine or propfan")
            return 2
        dataset = builders[name](base_resolution=resolution, n_timesteps=steps)
        levels = [dataset.level(t) for t in range(steps)]
        store = write_dataset(
            target,
            levels,
            modeled_shapes=list(dataset.spec.modeled_shapes),
            times=dataset.spec.times[:steps],
        )
        print(f"wrote {store.n_timesteps} x {store.n_blocks} blocks to {store.root}")
        return 0
    if mode == "info":
        if not args:
            print("usage: python -m repro info <engine|propfan|path> [time_index]")
            return 2
        name = args[0]
        time_index = int(args[1]) if len(args) > 1 else 0
        from .grids.summary import summarize_dataset

        if name in {"engine", "propfan"}:
            from .synth import build_engine, build_propfan

            dataset = {"engine": build_engine, "propfan": build_propfan}[name](
                base_resolution=5, n_timesteps=max(time_index + 1, 1)
            )
            level = dataset.level(time_index)
        else:
            from .io import DatasetStore

            level = DatasetStore(name).read_level(time_index)
        print(summarize_dataset(level).format())
        return 0
    if mode == "extract":
        return _extract_main(args)
    if mode == "trace":
        return _trace_main(args)
    if mode == "stats":
        return _stats_main(args)
    if mode == "profile":
        return _profile_main(args)
    if mode == "critical-path":
        return _critical_path_main(args)
    if mode == "slo":
        return _slo_main(args)
    if mode in {"loadtest", "serve"}:
        from .serve.cli import loadtest_main, serve_main

        handler = loadtest_main if mode == "loadtest" else serve_main
        positional, flags = _obs_flags(mode, args)
        if positional:
            print(f"unexpected argument {positional[0]!r}")
        code = 2 if positional or "error" in flags else handler(flags)
        if code == 2:
            print(f"usage: {USAGE[mode]}")
        return code
    print(f"unknown mode {mode!r}; try --help")
    return 2


# -------------------------------------------------------- observability
#: friendly aliases -> (registry name, default params) on the small
#: Engine testbed used by the trace/stats verbs.
def _obs_command_spec(name: str) -> tuple[str, dict]:
    iso = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}
    vortex = {"threshold": -0.5, "time_range": (0, 1)}
    pathlines = {
        "seeds": [[-0.3, -0.2, 0.6], [0.2, 0.3, 0.9], [0.0, -0.4, 1.1]],
        "time_range": (0, 2),
        "max_steps": 60,
    }
    cutplane = {"normal": (0.0, 0.0, 1.0), "offset": 0.8, "time_range": (0, 1)}
    aliases = {
        "iso": ("iso-dataman", iso),
        "vortex": ("vortex-dataman", vortex),
        "pathlines": ("pathlines-dataman", pathlines),
        "cutplane": ("cutplane", cutplane),
    }
    if name in aliases:
        return aliases[name]
    defaults = {
        "iso-dataman": iso, "iso-simple": iso, "iso-progressive": iso,
        "iso-viewer": {**iso, "viewpoint": (0.0, 0.0, -5.0), "max_triangles": 2000},
        "vortex-dataman": vortex, "vortex-simple": vortex,
        "vortex-streamed": {**vortex, "batch_cells": 16},
        "pathlines-dataman": pathlines, "pathlines-simple": pathlines,
        "cutplane": cutplane, "cutplane-streamed": cutplane,
        "streaklines": pathlines,
    }
    if name in defaults:
        return name, defaults[name]
    raise KeyError(name)


def _obs_flags(mode: str, args: list[str]) -> tuple[list[str], dict]:
    """Split positional args from the --flag[=value] options ``USAGE[mode]``
    lists: ``[--check]`` is a switch, ``[--workers N]`` takes a value.
    Any other flag is an error, so a typo cannot swallow the next one."""
    accepted = dict(re.findall(r"\[--([\w-]+)( [^\]]+)?\]", USAGE[mode]))
    positional: list[str] = []
    flags: dict[str, str | bool] = {}
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if not arg.startswith("--"):
            positional.append(arg)
            continue
        key, has_value, value = arg[2:].partition("=")
        if key not in accepted or (has_value and not accepted[key]):
            print(f"unknown option {arg!r}")
            return [], {"error": True}
        if not accepted[key]:
            flags[key] = True
            continue
        if not has_value:
            if i >= len(args) or args[i].startswith("--"):
                print(f"option --{key} needs a value")
                return [], {"error": True}
            value = args[i]
            i += 1
        flags[key] = value
    return positional, flags


def _obs_session(dataset_name: str, n_workers: int):
    from .bench.calibration import paper_cluster, paper_costs
    from .core.session import ViracochaSession
    from .synth import build_engine, build_propfan

    builders = {"engine": build_engine, "propfan": build_propfan}
    if dataset_name not in builders:
        raise KeyError(dataset_name)
    dataset = builders[dataset_name](base_resolution=4, n_timesteps=2)
    return ViracochaSession(
        dataset,
        cluster_config=paper_cluster(n_workers),
        costs=paper_costs(),
        trace=True,
    )


def _parse_workers(flags: dict) -> int | None:
    raw = flags.get("workers", 2)
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        print(f"--workers must be a positive integer, got {raw!r}")
        return None
    return n


def _extract_main(args: list[str]) -> int:
    """Run one command for real on local cores (repro.parallel)."""
    positional, flags = _obs_flags("extract", args)
    if flags.get("error") or not positional:
        print(f"usage: {USAGE['extract']}")
        return 2
    try:
        command, params = _obs_command_spec(positional[0])
    except KeyError:
        print(f"unknown command {positional[0]!r}; try `python -m repro commands`")
        return 2
    n_workers = _parse_workers(flags)
    if n_workers is None:
        return 2
    executor = str(flags.get("executor", "process"))
    from .parallel import EXECUTORS, SCHEDULES, ParallelExtractor

    if executor not in EXECUTORS:
        print(f"--executor must be one of {'|'.join(EXECUTORS)}, got {executor!r}")
        return 2
    schedule = str(flags.get("schedule", "static"))
    if schedule not in SCHEDULES:
        print(f"--schedule must be one of {'|'.join(SCHEDULES)}, got {schedule!r}")
        return 2
    data_name = str(flags.get("data", "engine"))
    if data_name in {"engine", "propfan"}:
        from .synth import build_engine, build_propfan

        data = {"engine": build_engine, "propfan": build_propfan}[data_name](
            base_resolution=4, n_timesteps=2
        )
    else:
        from .io import DatasetStore

        try:
            data = DatasetStore(data_name)
        except FileNotFoundError as exc:
            print(exc)
            return 2
    flame = flags.get("flame")
    profile_interval = None
    if flame:
        from .obs.profiling import DEFAULT_INTERVAL

        profile_interval = DEFAULT_INTERVAL
    with ParallelExtractor(
        data, workers=n_workers, executor=executor,
        profile_interval=profile_interval,
    ) as ext:
        if flags.get("precompute"):
            n = ext.precompute("lambda2")
            print(f"precomputed lambda2 for {n} blocks "
                  f"({ext.store.nbytes} shared bytes)")
        res = ext.run(
            command,
            params=params,
            schedule=schedule if schedule != "static" else None,
        )
        print(f"== {command} on {data_name} "
              f"({executor} executor, {res.group_size} workers, "
              f"{res.schedule} schedule) ==")
        print(f"wall time:   {res.wall_seconds * 1e3:.1f} ms "
              f"(shares: "
              + ", ".join(f"{s * 1e3:.1f}" for s in res.share_seconds)
              + " ms)")
        # The rest were culled: their stored range excludes the threshold.
        print(f"shares:      {len(res.shares)}  payloads: {res.n_payloads}  "
              f"loaded {res.n_loads} of {res.n_loads + res.n_culled} blocks")
        if res.schedule != "static":
            print(f"stealing:    {res.steals} steals, "
                  f"{res.idle_seconds * 1e3:.1f} ms worker idle")
        merged = res.result
        if hasattr(merged, "n_triangles"):
            print(f"result:      mesh with {merged.n_triangles} triangles, "
                  f"{merged.n_vertices} vertices")
        elif isinstance(merged, list):
            print(f"result:      {len(merged)} payloads")
        else:
            print(f"result:      {merged!r}")
        print(f"shared mem:  {ext.store.n_segments} segments, "
              f"{ext.store.nbytes} bytes")
        if flame:
            from .obs.profiling import top_functions

            n_stacks = ext.write_flamegraph(str(flame))
            samples = sum(ext.folded.values())
            print(f"profile:     {samples} samples, {n_stacks} unique stacks "
                  f"-> {flame} (collapsed-stack / flamegraph.pl format)")
            for func, count in top_functions(ext.folded, limit=5):
                print(f"  {count:6d}  {func}")
    return 0


def _trace_main(args: list[str]) -> int:
    positional, flags = _obs_flags("trace", args)
    if flags.get("error") or not positional:
        print(f"usage: {USAGE['trace']}")
        return 2
    try:
        command, params = _obs_command_spec(positional[0])
    except KeyError:
        print(f"unknown command {positional[0]!r}; try `python -m repro commands`")
        return 2
    n_workers = _parse_workers(flags)
    if n_workers is None:
        return 2
    try:
        session = _obs_session(str(flags.get("dataset", "engine")), n_workers)
    except KeyError:
        print("dataset must be engine or propfan")
        return 2
    result = session.run(command, params=params)
    from .obs import write_chrome_trace
    from .viz.ascii import render_timeline

    out = str(flags.get("out", "run.json"))
    doc = write_chrome_trace(out, session.tracer, session.trace)
    kinds = sorted({s.kind for s in result.spans})
    print(
        f"{command}: {len(result.spans)} spans ({', '.join(kinds)}) "
        f"across nodes {sorted({s.node for s in result.spans})}"
    )
    print(f"wrote {len(doc['traceEvents'])} trace events to {out}")
    if flags.get("timeline"):
        print()
        print(render_timeline(result.spans))
    return 0


def _stats_main(args: list[str]) -> int:
    positional, flags = _obs_flags("stats", args)
    if flags.get("error") or not positional:
        print(f"usage: {USAGE['stats']}")
        return 2
    try:
        command, params = _obs_command_spec(positional[0])
    except KeyError:
        print(f"unknown command {positional[0]!r}; try `python -m repro commands`")
        return 2
    n_workers = _parse_workers(flags)
    if n_workers is None:
        return 2
    try:
        session = _obs_session(str(flags.get("dataset", "engine")), n_workers)
    except KeyError:
        print("dataset must be engine or propfan")
        return 2
    # Cold pass then warm pass, so cache-hit and prefetch metrics show
    # the DMS actually doing something (the paper's §7 methodology).
    session.run(command, params=params)
    result = session.run(command, params=params)
    if flags.get("prometheus"):
        print(session.metrics.render_prometheus(), end="")
        return 0
    agg = session.scheduler.aggregate_dms_stats()
    print(f"== {command} on {flags.get('dataset', 'engine')} "
          f"({n_workers} workers, cold + warm pass) ==")
    print(f"cache hit rate:    {agg.hit_rate:.1%} "
          f"(l1 {agg.hits_l1}, l2 {agg.hits_l2}, miss {agg.misses})")
    print(f"prefetch accuracy: {agg.prefetch_accuracy:.1%} "
          f"({agg.prefetches_useful}/{agg.prefetches_issued} useful, "
          f"{agg.prefetches_dropped} dropped)")
    print(f"bytes loaded:      {agg.bytes_loaded}")
    tracer = session.tracer
    print(f"spans:             {len(tracer)} retained, {tracer.dropped} dropped, "
          f"ring high-water {tracer.high_water}")
    for worker in session.scheduler.workers:
        desc = worker.proxy.prefetcher.describe()
        extra = ", ".join(f"{k}={v}" for k, v in desc.items() if k != "name")
        print(f"  worker {worker.worker_id} prefetcher: {desc['name']}"
              + (f" ({extra})" if extra else ""))
    selector = session.scheduler.server.selector
    decisions = ", ".join(
        f"{name}={count}" for name, count in sorted(selector.decisions.items())
    )
    print(f"strategy decisions: {decisions}")
    if selector.last_fitness:
        scores = ", ".join(
            f"{name}={score:.3e}"
            for name, score in sorted(selector.last_fitness.items())
        )
        print(f"last fitness:      {scores}")
    server = session.scheduler.server
    if server.dedup_followers:
        print(f"cluster dedup:     {server.dedup_followers} follower(s) on "
              f"{server.dedup_flights} flight(s), "
              f"{server.dedup_bytes_saved} bytes saved")
    if agg.compression_decisions:
        calls = ", ".join(
            f"{decision}={count}"
            for decision, count in sorted(agg.compression_decisions.items())
        )
        print(f"wire compression:  {calls}; "
              f"{agg.compression_bytes_saved} wire bytes saved, "
              f"{agg.compression_seconds:.3f}s codec time")
    print()
    print(session.metrics.format_table())
    return 0


def _profile_main(args: list[str]) -> int:
    positional, flags = _obs_flags("profile", args)
    if flags.get("error") or not positional:
        print(f"usage: {USAGE['profile']}")
        return 2
    try:
        command, params = _obs_command_spec(positional[0])
    except KeyError:
        print(f"unknown command {positional[0]!r}; try `python -m repro commands`")
        return 2
    n_workers = _parse_workers(flags)
    if n_workers is None:
        return 2
    sort = str(flags.get("sort", "cumulative"))
    if sort not in {"cumulative", "tottime"}:
        print(f"--sort must be cumulative or tottime, got {sort!r}")
        return 2
    try:
        top = int(flags.get("top", 20))
    except ValueError:
        top = 0
    if top < 1:
        print(f"--top must be a positive integer, got {flags.get('top')!r}")
        return 2
    try:
        session = _obs_session(str(flags.get("dataset", "engine")), n_workers)
    except KeyError:
        print("dataset must be engine or propfan")
        return 2
    import cProfile
    import pstats

    if not flags.get("cold"):
        # Warm pass first: session construction, first-touch numpy and
        # cold caches otherwise swamp the steady-state costs perf PRs
        # actually target (the interactive replay loop).
        session.run(command, params=dict(params))
    profiler = cProfile.Profile()
    profiler.enable()
    session.run(command, params=dict(params))
    profiler.disable()
    pass_kind = "cold" if flags.get("cold") else "warm"
    print(
        f"== {command} on {flags.get('dataset', 'engine')} "
        f"({n_workers} workers, {pass_kind} pass, top {top} by {sort}) =="
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return 0


def _critical_path_main(args: list[str]) -> int:
    """Where did the wall clock go?  Phase attribution for one command."""
    positional, flags = _obs_flags("critical-path", args)
    if flags.get("error") or not positional:
        print(f"usage: {USAGE['critical-path']}")
        return 2
    try:
        command, params = _obs_command_spec(positional[0])
    except KeyError:
        print(f"unknown command {positional[0]!r}; try `python -m repro commands`")
        return 2
    n_workers = _parse_workers(flags)
    if n_workers is None:
        return 2
    try:
        session = _obs_session(str(flags.get("data", "engine")), n_workers)
    except KeyError:
        print("--data must be engine or propfan")
        return 2
    from .obs.critical_path import analyze_result

    if flags.get("warm"):
        # Warm the DMS caches first so the report shows the steady
        # state; default is the cold pass, where load phases are live.
        session.run(command, params=dict(params))
    result = session.run(command, params=dict(params))
    report = analyze_result(result)
    print(report.format())
    if flags.get("path"):
        print()
        print(report.format_path())
    return 0


def _slo_main(args: list[str]) -> int:
    """Evaluate SLOs over the sentry workload; gate with ``--check``."""
    positional, flags = _obs_flags("slo", args)
    if flags.get("error") or positional:
        print(f"usage: {USAGE['slo']}")
        return 2
    from .obs import sentry

    baseline_path = str(flags.get("baseline", "sentry_baseline.json"))
    baseline = None
    if flags.get("check"):
        try:
            baseline = sentry.load_baseline(baseline_path)
        except FileNotFoundError:
            print(f"baseline {baseline_path} not found; "
                  "run with --update-baseline first")
            return 2
    # A --check run must replay the baseline's exact workload shape;
    # otherwise fall back to flags/defaults.
    data = str(flags.get("data") or (baseline or {}).get("dataset", "engine"))
    if data not in {"engine", "propfan"}:
        print("--data must be engine or propfan")
        return 2
    try:
        workers = int(flags.get("workers") or (baseline or {}).get("workers", 4))
        repeats = int(flags.get("repeats") or (baseline or {}).get("repeats", 2))
    except ValueError:
        print("--workers and --repeats must be integers")
        return 2
    if workers < 1 or repeats < 1:
        print("--workers and --repeats must be positive")
        return 2
    current = sentry.measure(data, workers=workers, repeats=repeats)
    tracker = current["_tracker"]
    if flags.get("json"):
        import json as _json

        print(_json.dumps(sentry.strip_runtime(current), indent=2, sort_keys=True))
        return 0
    print(f"== SLO sentry: {data}, {workers} workers, "
          f"{repeats} repeats per command ==")
    print()
    print(tracker.format_report("command"))
    print()
    print("critical-path phase attribution (summed over repeats):")
    for name, entry in current["commands"].items():
        if "phase_seconds" not in entry:
            # Scheduling-comparison cells carry their own keys, not a
            # phase breakdown; unknown future cells print a key count
            # instead of crashing the report.
            if "ttfa_level_major_s" in entry:
                print(
                    f"  {name:20s} warm TTFA level-major "
                    f"{entry['ttfa_level_major_s']:.2f}s vs depth-first "
                    f"{entry['ttfa_depth_first_s']:.2f}s "
                    f"({entry['ttfa_speedup']:.1f}x)"
                )
            elif "dynamic_speedup" in entry:
                print(
                    f"  {name:20s} warm static "
                    f"{entry['warm_static_s']:.2f}s vs dynamic "
                    f"{entry['warm_dynamic_s']:.2f}s "
                    f"({entry['dynamic_speedup']:.2f}x, "
                    f"{entry['steals_dynamic']} steals, idle "
                    f"{entry['idle_static_s']:.1f}s -> "
                    f"{entry['idle_dynamic_s']:.1f}s)"
                )
            else:
                print(f"  {name:20s} ({len(entry)} gated keys)")
            continue
        total = sum(entry["phase_seconds"].values())
        shares = ", ".join(
            f"{phase} {seconds / total:.0%}"
            for phase, seconds in sorted(
                entry["phase_seconds"].items(), key=lambda kv: -kv[1]
            )
            if seconds > 0.0
        )
        print(f"  {name:20s} coverage {entry['coverage']:.1%}  ({shares})")
    if flags.get("update-baseline"):
        sentry.write_baseline(baseline_path, current)
        print(f"\nwrote baseline to {baseline_path}")
        return 0
    if baseline is None:
        return 0
    report = sentry.SentryReport(current=sentry.strip_runtime(current))
    report.regressions.extend(sentry.compare(baseline, current))
    print()
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

