"""Command-line entry point: ``python -m repro <verb> [args]``.

``trace`` runs one command on a small simulated cluster and exports a
Chrome ``trace_event`` JSON (open in Perfetto / about:tracing) plus an
ASCII timeline; ``stats`` prints the unified metrics table (cache hit
rate, prefetch accuracy, latency histograms); ``profile`` replays a
command under ``cProfile`` and prints the top hotspots so perf work
starts from evidence: on the simulated session, or with ``--executor``
on the real path ``extract`` runs, where every pool worker profiles its
own shares and the parent merges their stats into its own.
``critical-path`` attributes one command's wall clock to phases
(queue/load/compute/merge/stream/recovery) along the span DAG's
critical path; ``slo`` evaluates the paper's 100 ms
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
        "[--data engine|propfan] [--timeline]"
    ),
    "stats": (
        "python -m repro stats <cmd> [--workers N] "
        "[--data engine|propfan] [--prometheus]"
    ),
    "profile": (
        "python -m repro profile <cmd> [--top N] [--sort cumulative|tottime] "
        "[--workers N] [--data engine|propfan] [--executor serial|process] "
        "[--cold]"
    ),
    "extract": (
        "python -m repro extract <cmd> [--data engine|propfan|path-to-store] "
        "[--workers N] [--executor serial|process] "
        "[--schedule static|dynamic]"
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


class _Usage(Exception):
    """A bad command line: :func:`main` prints it, then the verb's usage
    line, and exits 2."""


#: one usage-line token: ``<x>`` (required), ``[--flag]`` (a switch),
#: ``[--flag VALUE]`` (an option) or ``[x]`` (optional; ``[x ...]``
#: takes any number).
_TOKEN = re.compile(r"<([^>]+)>|\[--([\w-]+)(?: ([^\]]+))?\]|\[([^\]]+)\]")


def _value(label: str, spec: str, text: str):
    """``text`` read as ``spec`` says: ``N`` is an integer, ``F`` and
    ``HZ`` a number, ``a|b`` one of the alternatives (any text when one
    of them names a path), anything else the text itself."""
    try:
        if spec == "N":
            return int(text)
        if spec in {"F", "HZ"}:
            return float(text)
    except ValueError:
        kind = "an integer" if spec == "N" else "a number"
        raise _Usage(f"{label} must be {kind}, got {text!r}") from None
    choices = spec.split("|")
    if len(choices) > 1 and text not in choices and "path" not in spec:
        raise _Usage(f"{label} must be one of {spec}, got {text!r}")
    return text


def _parse(verb: str, args: list[str]) -> tuple[list[str], dict]:
    """Split ``args`` into positionals and ``--flag[=value]`` options by
    the grammar of ``USAGE[verb]``.  Anything that grammar does not
    allow raises :class:`_Usage`, so a typo cannot swallow the next
    flag."""
    specs: list[tuple[str, bool]] = []  # (placeholder, required)
    options: dict[str, str] = {}  # flag -> value placeholder, "" for a switch
    for required, flag, value, optional in _TOKEN.findall(USAGE[verb]):
        if flag:
            options[flag] = value
        else:
            specs.append((required or optional, bool(required)))
    positional: list[str] = []
    flags: dict = {}
    rest = iter(args)
    for arg in rest:
        if not arg.startswith("--"):
            positional.append(arg)
            continue
        key, has_value, text = arg[2:].partition("=")
        if key not in options or (has_value and not options[key]):
            raise _Usage(f"unknown option {arg!r}")
        if not options[key]:
            flags[key] = True
            continue
        if not has_value:
            text = next(rest, None)
            if text is None or text.startswith("--"):
                raise _Usage(f"option --{key} needs a value")
        flags[key] = _value(f"--{key}", options[key], text)
    n_required = sum(required for _, required in specs)
    if len(positional) < n_required:
        raise _Usage(f"missing <{specs[len(positional)][0]}>")
    variadic = bool(specs) and specs[-1][0].endswith("...")
    if len(positional) > len(specs) and not variadic:
        raise _Usage(f"unexpected argument {positional[len(specs)]!r}")
    for i, ((spec, _), text) in enumerate(zip(specs, positional)):
        _value(f"argument {i + 1}", spec, text)
    return positional, flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in {"-h", "--help"}:
        print(__doc__)
        return 0
    verb, args = argv[0], argv[1:]
    if verb not in _VERBS:
        print(f"unknown mode {verb!r}; try --help")
        return 2
    if any(a in {"-h", "--help"} for a in args):
        print(f"usage: {USAGE[verb]}")
        return 0
    try:
        return _VERBS[verb](*_parse(verb, args))
    except _Usage as exc:
        print(exc)
        print(f"usage: {USAGE[verb]}")
        return 2


# ------------------------------------------------------- paper and data
def _known(names: list[str], table: dict, what: str) -> list[str]:
    """``names``, or every key of ``table`` when there are none."""
    unknown = [n for n in names if n not in table]
    if unknown:
        raise _Usage(f"unknown {what} {unknown}; known: {sorted(table)}")
    return names or list(table)


def _report(positional: list[str], flags: dict) -> int:
    from .bench.experiments import ALL_EXPERIMENTS
    from .bench.report import format_result, results_to_json, run_all

    results = run_all(_known(positional, ALL_EXPERIMENTS, "experiments"))
    for result in results:
        print(format_result(result))
        print()
    if "json" in flags:
        with open(flags["json"], "w") as fh:
            fh.write(results_to_json(results))
        print(f"wrote {flags['json']}")
    return 0


def _figures(positional: list[str], flags: dict) -> int:
    from .bench.experiments import ALL_EXPERIMENTS
    from .bench.figures import format_barchart
    from .bench.report import format_result

    for name in _known(positional, ALL_EXPERIMENTS, "experiments"):
        result = ALL_EXPERIMENTS[name]()
        try:
            print(format_barchart(result))
        except ValueError:
            print(format_result(result))
        print()
    return 0


def _ablations(positional: list[str], flags: dict) -> int:
    from .bench.ablations import ALL_ABLATIONS
    from .bench.report import format_result

    for name in _known(positional, ALL_ABLATIONS, "ablations"):
        print(format_result(ALL_ABLATIONS[name]()))
        print()
    return 0


def _commands(positional: list[str], flags: dict) -> int:
    """Each registered command and its declared parameters."""
    from .commands import default_registry

    registry = default_registry()
    for name in registry.names():
        print(name)
        for p in registry.command_class(name).declaration().values():
            print(f"  {p.describe()}")
    return 0


def _taxonomy(positional: list[str], flags: dict) -> int:
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


def _store(path: str):
    from .io import DatasetStore

    try:
        return DatasetStore(path)
    except FileNotFoundError as exc:
        raise _Usage(str(exc)) from None


def _export(positional: list[str], flags: dict) -> int:
    from .io import write_dataset
    from .synth import DATASETS

    name, target = positional[:2]
    steps = _value("steps", "N", positional[2]) if len(positional) > 2 else 4
    resolution = (
        _value("resolution", "N", positional[3]) if len(positional) > 3 else 5
    )
    dataset = DATASETS[name](base_resolution=resolution, n_timesteps=steps)
    levels = [dataset.level(t) for t in range(steps)]
    store = write_dataset(
        target,
        levels,
        modeled_shapes=list(dataset.spec.modeled_shapes),
        times=dataset.spec.times[:steps],
    )
    print(f"wrote {store.n_timesteps} x {store.n_blocks} blocks to {store.root}")
    return 0


def _info(positional: list[str], flags: dict) -> int:
    from .grids.summary import summarize_dataset
    from .synth import DATASETS

    name = positional[0]
    t = _value("time_index", "N", positional[1]) if len(positional) > 1 else 0
    if name in DATASETS:
        dataset = DATASETS[name](base_resolution=5, n_timesteps=max(t + 1, 1))
        level = dataset.level(t)
    else:
        level = _store(name).read_level(t)
    print(summarize_dataset(level).format())
    return 0


# ------------------------------------------------------- command verbs
def _prelude(positional: list[str], flags: dict) -> tuple[str, dict, int]:
    """What the five ``<cmd>`` verbs share: the registered command and
    its demo params, and ``--workers`` (default 2)."""
    from .commands import DEMO_ALIASES, DEMO_PARAMS

    command = DEMO_ALIASES.get(positional[0], positional[0])
    if command not in DEMO_PARAMS:
        raise _Usage(
            f"unknown command {positional[0]!r}; try `python -m repro commands`"
        )
    workers = flags.get("workers", 2)
    if workers < 1:
        raise _Usage(f"--workers must be a positive integer, got {workers}")
    return command, dict(DEMO_PARAMS[command]), workers


def _session(flags: dict, workers: int):
    """The simulated session the trace/stats/profile/critical-path verbs
    run on."""
    from .bench.calibration import paper_session

    return paper_session(flags.get("data", "engine"), workers)


def _open_data(flags: dict):
    """The data ``extract`` and ``profile --executor`` run on:
    ``--data``'s synthetic dataset (Engine by default; 4 resolutions,
    2 levels) or a store on disk."""
    from .synth import DATASETS

    name = flags.get("data", "engine")
    if name in DATASETS:
        return DATASETS[name](base_resolution=4, n_timesteps=2)
    return _store(name)


def _run_lines(res) -> list[str]:
    """Where a real run's wall time went, and how many blocks it loaded
    (the rest were culled: their stored range excludes the value)."""
    if res.shares:
        went = "shares: " + ", ".join(f"{s * 1e3:.1f}" for s in res.share_seconds)
        went += " ms"
    else:
        went = "no share ran: every block was culled"
    return [
        f"wall time:   {res.wall_seconds * 1e3:.1f} ms ({went})",
        f"shares:      {len(res.shares)}  payloads: {res.n_payloads}  "
        f"loaded {res.n_loads} of {res.n_loads + res.n_culled} blocks",
    ]


def _extract(positional: list[str], flags: dict) -> int:
    """Run one command for real on local cores (repro.parallel)."""
    command, params, n_workers = _prelude(positional, flags)
    from .core.commands import ParamError
    from .parallel import ParallelExtractor

    executor = flags.get("executor", "process")
    schedule = flags.get("schedule", "static")
    data_name = flags.get("data", "engine")
    with ParallelExtractor(
        _open_data(flags), workers=n_workers, executor=executor,
    ) as ext:
        try:
            res = ext.run(command, params=params, schedule=schedule)
        except ParamError as exc:  # e.g. a store with too few levels
            raise _Usage(f"{command} on {data_name}: {exc}") from None
        print(f"== {command} on {data_name} "
              f"({executor} executor, {res.group_size} workers, "
              f"{res.schedule} schedule) ==")
        for line in _run_lines(res):
            print(line)
        if res.schedule != "static":
            print(f"stealing:    {res.steals} steals, "
                  f"{res.idle_seconds * 1e3:.1f} ms worker idle")
        print(f"result:      {_describe_result(res.result)}")
        print(f"mapped:      {len(ext.store.mapped_files)} files, "
              f"{ext.store.nbytes} bytes")
    return 0


def _describe_result(merged) -> str:
    """Counts and a sha256 prefix of the merged geometry's bytes, so two
    runs' ``result:`` lines are equal only where their bytes are."""
    import hashlib

    from .algorithms.pathlines import Pathline
    from .io import geometry_to_bytes
    from .viz import PolylineSet, TriangleMesh

    if isinstance(merged, list) and all(isinstance(p, Pathline) for p in merged):
        merged = PolylineSet.from_pathlines(merged)
    if isinstance(merged, TriangleMesh):
        counts = f"mesh with {merged.n_triangles} triangles"
    elif isinstance(merged, PolylineSet):
        counts = f"{merged.n_lines} polylines"
    elif isinstance(merged, list):
        return f"{len(merged)} payloads"
    else:
        return repr(merged)
    digest = hashlib.sha256(geometry_to_bytes(merged)).hexdigest()[:8]
    return f"{counts}, {merged.n_vertices} vertices, sha256 {digest}"


def _trace(positional: list[str], flags: dict) -> int:
    command, params, n_workers = _prelude(positional, flags)
    session = _session(flags, n_workers)
    result = session.run(command, params=params)
    from .obs import write_chrome_trace
    from .viz.ascii import render_timeline

    out = flags.get("out", "run.json")
    doc = write_chrome_trace(out, session.tracer)
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


def _stats(positional: list[str], flags: dict) -> int:
    command, params, n_workers = _prelude(positional, flags)
    session = _session(flags, n_workers)
    # Cold pass then warm pass, so cache-hit and prefetch metrics show
    # the DMS actually doing something (the paper's §7 methodology).
    session.run(command, params=params)
    session.run(command, params=params)
    if flags.get("prometheus"):
        print(session.metrics.render_prometheus(), end="")
        return 0
    agg = session.scheduler.aggregate_dms_stats()
    print(f"== {command} on {flags.get('data', 'engine')} "
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


def _profile(positional: list[str], flags: dict) -> int:
    command, params, n_workers = _prelude(positional, flags)
    sort = flags.get("sort", "cumulative")
    top = flags.get("top", 20)
    if top < 1:
        raise _Usage(f"--top must be a positive integer, got {top}")
    import cProfile

    executor = flags.get("executor")
    cold = flags.get("cold")
    profiler = cProfile.Profile()
    shares, lines, where = [], [], f"{n_workers} workers"
    if executor is None:
        session = _session(flags, n_workers)
        if not cold:
            # Warm pass first: session construction, first-touch numpy and
            # cold caches otherwise swamp the steady-state costs perf PRs
            # actually target (the interactive replay loop).
            session.run(command, params=dict(params))
        profiler.runcall(session.run, command, params=dict(params))
    else:
        from .parallel import ParallelExtractor

        with ParallelExtractor(
            _open_data(flags), workers=n_workers, executor=executor, profile=True,
        ) as ext:
            if not cold:
                # Warm run first: pool spawn and the first run's pickled
                # gather stay out of the profile.
                ext.run(command, params=dict(params))
            res = profiler.runcall(ext.run, command, params=dict(params))
        shares, lines = res.shares, _run_lines(res)
        where = f"{executor} executor, {where}"
    print(
        f"== {command} on {flags.get('data', 'engine')} "
        f"({where}, {'cold' if cold else 'warm'} pass, top {top} by {sort}) =="
    )
    for line in lines:
        print(line)
    stats = _merged_stats(profiler, shares)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return 0


def _merged_stats(profiler, shares):
    """``profiler``'s stats with every share's worker-side ``cProfile``
    stats added (:attr:`~repro.parallel.ShareResult.profile_stats`)."""
    import pstats
    from types import SimpleNamespace

    stats = pstats.Stats(profiler, stream=sys.stdout)
    for share in shares:
        if share.profile_stats is not None:
            # pstats reads a profile as anything with ``stats`` and
            # ``create_stats()``.
            stats.add(SimpleNamespace(
                stats=share.profile_stats, create_stats=lambda: None,
            ))
    return stats


def _critical_path(positional: list[str], flags: dict) -> int:
    """Where did the wall clock go?  Phase attribution for one command."""
    command, params, n_workers = _prelude(positional, flags)
    session = _session(flags, n_workers)
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


# ----------------------------------------------------- sentry and serve
def _slo(positional: list[str], flags: dict) -> int:
    """Evaluate SLOs over the sentry workload; gate with ``--check``."""
    from .obs import sentry

    baseline_path = flags.get("baseline", "sentry_baseline.json")
    baseline = {}
    if flags.get("check"):
        try:
            baseline = sentry.load_baseline(baseline_path)
        except FileNotFoundError:
            raise _Usage(f"baseline {baseline_path} not found; "
                         "run with --update-baseline first") from None
    # A --check run must replay the baseline's exact workload shape;
    # otherwise fall back to flags/defaults.
    data = flags.get("data", baseline.get("dataset", "engine"))
    workers = flags.get("workers", baseline.get("workers", 4))
    repeats = flags.get("repeats", baseline.get("repeats", 2))
    if workers < 1 or repeats < 1:
        raise _Usage("--workers and --repeats must be positive")
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
    if not flags.get("check"):
        return 0
    report = sentry.SentryReport(sentry.compare(baseline, current))
    print()
    print(report.format())
    return 0 if report.ok else 1


def _loadtest(positional: list[str], flags: dict) -> int:
    """Deterministic multi-tenant soak in simulated time; ``--replay``
    fails unless two runs give byte-identical fingerprints."""
    from .serve.loadgen import LoadSpec, run_loadtest

    try:
        spec = LoadSpec(
            n_tenants=flags.get("tenants", 1000),
            seed=flags.get("seed", 0),
            requests_per_tenant=flags.get("requests", 3),
            rate_hz=flags.get("rate", 0.2),
            arrival=flags.get("arrival", "poisson"),
            slots=flags.get("slots", 16),
            cancel_frac=flags.get("cancel-frac", 0.05),
            priority_frac=flags.get("priority-frac", 0.1),
            max_in_flight=flags.get("max-in-flight", 2),
        )
    except ValueError as exc:
        raise _Usage(f"bad loadtest options: {exc}") from None
    report = run_loadtest(spec)
    if flags.get("replay"):
        replay = run_loadtest(spec)
        if replay.fingerprint != report.fingerprint:
            print("REPLAY MISMATCH: the same spec produced two different "
                  "fingerprints")
            print(f"  run 1: {report.fingerprint}")
            print(f"  run 2: {replay.fingerprint}")
            return 1
    out = flags.get("out")
    if out:
        report.write_json(out)
    if flags.get("json"):
        import json

        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format())
        if flags.get("replay"):
            print("\nreplay: fingerprints identical across two runs")
        if out:
            print(f"wrote per-tenant rollup to {out}")
    return 0


def _serve(positional: list[str], flags: dict) -> int:
    """Boot the HTTP facade over a real session (blocks until
    interrupted)."""
    from .serve.cli import build_serve_app
    from .serve.rest import make_http_server

    data = flags.get("data", "engine")
    workers = flags.get("workers", 4)
    slots = flags.get("slots", 1)
    if workers < 1 or slots < 1:
        raise _Usage("--workers and --slots must be positive")
    app = build_serve_app(data, workers=workers, slots=slots)
    httpd = make_http_server(
        app, host=flags.get("host", "127.0.0.1"), port=flags.get("port", 8642)
    )
    bound = httpd.server_address
    print(f"serving {data} ({workers} workers, {slots} slots) "
          f"on http://{bound[0]}:{bound[1]}")
    print("routes: /healthz /v1/tenants /v1/commands /v1/slo /v1/metrics")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
    return 0


#: verb -> handler(positional, flags); each verb's grammar is its
#: ``USAGE`` line.
_VERBS = {
    "report": _report,
    "figures": _figures,
    "ablations": _ablations,
    "commands": _commands,
    "taxonomy": _taxonomy,
    "export": _export,
    "info": _info,
    "trace": _trace,
    "stats": _stats,
    "profile": _profile,
    "extract": _extract,
    "critical-path": _critical_path,
    "slo": _slo,
    "loadtest": _loadtest,
    "serve": _serve,
}


if __name__ == "__main__":
    raise SystemExit(main())
