#!/usr/bin/env python3
"""End-to-end wall-clock benchmark: REST/extractor call to geometry bytes.

Two ways in, one measurement underneath:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — one
  workload, the invocation ``BENCHMARK.json`` declares.  The last line
  of standard output is one JSON object ``{"correct", "attempted",
  "failed", "metrics"}`` holding every end-to-end metric (``--trace 0``)
  or every per-layer metric (``--trace 1``).
* ``run.py --seed N [--trace] [--repeat-check]`` — all six workloads
  round-robin (A B C D E F, A B C ...) from this one process, every
  metric printed by name with its unit, the result written to
  ``out/result.json``.

Either way a workload runs ``--repeats`` passes; each pass redoes its
own set-up and then runs a closed loop of ops for its share of
``--seconds`` (or exactly ``--ops N`` ops).  Latency percentiles pool the
ops of all passes; ``cmds_per_s`` and ``setup_s`` are the median of the
per-pass values; the per-pass spread ``(max-min)/median`` is kept beside
every metric.  Outputs are verified after the last pass.

See README.md beside this file for the glossary and the rationale.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")


def _declared_end_to_end() -> dict[str, tuple[str, str, float]]:
    """``name -> (unit, better, bound)`` as ``BENCHMARK.json`` declares
    them; the bound is the share of the baseline median by which a
    metric may worsen before it counts as a regression."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}


END_TO_END = _declared_end_to_end()

#: set-up differences below this many seconds never count as a regression.
SETUP_FLOOR_S = 0.050


def _import_program() -> float:
    """Import the program under test; returns the seconds it took.

    The driver runs from a bare checkout, so ``src`` is put on the path
    here.  Import time is part of what a user waits for before the first
    result, so it is charged to ``setup_s``.
    """
    sys.path.insert(0, os.path.join(REPO, "src"))
    t0 = time.perf_counter()
    try:
        import repro  # noqa: F401
        import harness  # noqa: F401
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return time.perf_counter() - t0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (default: all six)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="timed seconds per workload, split over the passes")
    p.add_argument("--ops", type=int,
                   help="run exactly N ops per pass instead of --seconds")
    p.add_argument("--repeats", type=int, default=3, help="passes per workload")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   help="add the traced pass and the per-layer probes")
    p.add_argument("--repeat-check", action="store_true",
                   help="run two full sets and compare them against the bounds")
    args = p.parse_args(argv)
    if args.repeats < 1 or (args.ops is not None and args.ops < 1):
        p.error("--repeats and --ops must be positive")
    return args


# ------------------------------------------------------------ measuring
def measure(names: list[str], args, import_s: float) -> dict:
    """Run the passes of every named workload; returns the result doc."""
    import harness
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    budget = None if args.ops is not None else args.seconds / args.repeats
    if args.trace and budget is not None:
        # Half the time goes to the untraced and traced pass pair, the
        # rest is left for the layer probes.
        budget = args.seconds / 4
    n_untraced = 1 if args.trace else args.repeats
    loads = {name: WORKLOADS[name](args.seed, workdir) for name in names}
    passes: dict[str, list] = {name: [] for name in names}
    traced: dict[str, object] = {}
    doc: dict = {"host": harness.host_info(), "seed": args.seed,
                 "import_s": import_s, "workloads": {}, "claim": None}
    try:
        for rep in range(n_untraced):
            for name, load in loads.items():
                print(f"[pass {rep + 1}/{n_untraced}] {name}", flush=True)
                passes[name].append(harness.run_pass(load, budget, args.ops))
        if args.trace:
            for name, load in loads.items():
                print(f"[traced pass] {name}", flush=True)
                traced[name] = harness.run_pass(load, budget, args.ops, traced=True)
        for name, load in loads.items():
            every = passes[name] + ([traced[name]] if name in traced else [])
            wrong = load.verify([p.records for p in every])
            doc["workloads"][name] = summarize(
                passes[name], traced.get(name), wrong, import_s
            )
        if args.trace:
            import layers

            probes = layers.LayerProbes(args.seed, workdir, quick=args.ops is not None)
            doc["per_layer"] = probes.measure()
            for name in names:
                doc["workloads"][name]["traced"] = layers.traced_pass_metrics(
                    passes[name][0], traced[name]
                )
            n_events = layers.write_trace(
                os.path.join(OUT, "trace.json"),
                [t for name in names for t in traced[name].traces] + [probes.trace],
                {0: "client 0", 1: "client 1", probes.trace.node: "layer probes"},
            )
            print(f"wrote {n_events} trace events to {os.path.join(OUT, 'trace.json')}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return doc


def summarize(passes: list, traced, wrong: int, import_s: float) -> dict:
    """Pool latencies, take medians of per-pass values, keep spreads.

    Timings come from the untraced ``passes`` only; the traced pass (if
    any) still counts towards ``attempted`` and ``failed``.
    """
    import harness

    lat = [x for p in passes for x in p.latencies_ms]
    counted = passes + ([traced] if traced is not None else [])
    attempted = sum(p.attempted for p in counted)
    failed = min(attempted, sum(p.failed for p in counted) + wrong)
    per_pass = {
        "setup_s": [import_s + p.setup_s for p in passes],
        "cmd_latency_p50_ms": [harness.percentile(p.latencies_ms, 50) for p in passes],
        "cmd_latency_p90_ms": [harness.percentile(p.latencies_ms, 90) for p in passes],
        "cmds_per_s": [p.cmds_per_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    values = {
        "setup_s": statistics.median(per_pass["setup_s"]),
        "cmd_latency_p50_ms": harness.percentile(lat, 50),
        "cmd_latency_p90_ms": harness.percentile(lat, 90),
        "cmds_per_s": statistics.median(per_pass["cmds_per_s"]),
        "peak_rss_mb": max(per_pass["peak_rss_mb"]),
    }
    calib = [c for p in passes for c in (p.calib_before_ms, p.calib_after_ms)]
    drift = (max(calib) - min(calib)) / statistics.median(calib)
    if drift > harness.CALIB_DRIFT_WARN:
        print(f"  warning: host.calib_ms drifted {drift:.0%} within this run "
              f"({min(calib):.2f}..{max(calib):.2f} ms); timings are suspect")
    return {
        "metrics": {
            name: {"value": values[name], "unit": END_TO_END[name][0],
                   "pass_spread": harness.spread(per_pass[name])}
            for name in END_TO_END
        },
        "samples": len(lat),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "leaks": [leak for p in passes for leak in p.leaks],
        "host_calib_ms": calib,
        "host_calib_drift": drift,
    }


# ------------------------------------------------------------- printing
def print_report(doc: dict) -> None:
    host = doc["host"]
    print(f"\nhost: cpu_count={host['cpu_count']} loadavg_1m={host['loadavg_1m']:.2f} "
          f"python={host['python']} numpy={host['numpy']} "
          f"start_method={host['start_method']}  seed={doc['seed']}  claim=null")
    for name, res in doc["workloads"].items():
        print(f"\n{name}: {res['samples']} samples, {res['attempted']} ops attempted, "
              f"{res['failed']} failed (failed_share={res['failed_share']:.4f}), "
              f"host.calib_ms={statistics.median(res['host_calib_ms']):.3f}")
        for metric, rec in res["metrics"].items():
            print(f"  {metric:<22} {rec['value']:>12.4f} {rec['unit']:<4} "
                  f"pass_spread={rec['pass_spread']:.3f}")
    if "per_layer" in doc:
        print("\nper-layer, layer probes (the same for every workload):")
        print_layers(doc["per_layer"])
        for name, res in doc["workloads"].items():
            print(f"\nper-layer, traced pass of {name}:")
            print_layers(res["traced"])


def print_layers(records: dict) -> None:
    for metric, rec in records.items():
        base = f"  [{rec['base']}]" if rec.get("base") else ""
        print(f"  {metric:<44} {rec['value']:>14.5f} {rec['unit']}{base}")


def contract_line(doc: dict, name: str, trace: bool) -> str:
    """The one-line JSON result ``BENCHMARK.json``'s driver reads."""
    res = doc["workloads"][name]
    source = {**res["traced"], **doc["per_layer"]} if trace else res["metrics"]
    metrics = {
        metric: {"value": rec["value"], "unit": rec["unit"]}
        for metric, rec in source.items()
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return json.dumps({
        "correct": res["failed"] == 0 and finite,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    })


# --------------------------------------------------------- repeat check
def worse_by(metric: str, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (<= 0: not worse)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if END_TO_END[metric][1] == "higher" else change


def repeat_check(args) -> int:
    """Two full sets back to back, each in a fresh interpreter (so both
    see the same RSS high-water pattern); non-zero exit on disagreement."""
    docs = []
    for tag in ("a", "b"):
        cmd = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--repeats", str(args.repeats)]
        if args.ops is not None:
            cmd += ["--ops", str(args.ops)]
        if args.workload:
            cmd += ["--workload", args.workload]
        print(f"== set {tag}: {' '.join(cmd[1:])}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            return proc.returncode
        with open(os.path.join(OUT, "result.json")) as fh:
            docs.append(json.load(fh))
    bad = 0
    print(f"\n{'workload':<14}{'metric':<22}{'set a':>12}{'spread':>8}"
          f"{'set b':>12}{'spread':>8}{'worse by':>10}{'bound':>7}")
    for name in docs[0]["workloads"]:
        a, b = (d["workloads"][name] for d in docs)
        for metric, (_unit, _better, bound) in END_TO_END.items():
            ma, mb = a["metrics"][metric], b["metrics"][metric]
            # Either set may be the slow one: the check is symmetric.
            gap = max(worse_by(metric, ma["value"], mb["value"]),
                      worse_by(metric, mb["value"], ma["value"]))
            ok = gap <= bound or (
                metric == "setup_s"
                and abs(ma["value"] - mb["value"]) < SETUP_FLOOR_S
            )
            bad += not ok
            print(f"{name:<14}{metric:<22}{ma['value']:>12.4f}{ma['pass_spread']:>8.3f}"
                  f"{mb['value']:>12.4f}{mb['pass_spread']:>8.3f}{gap:>10.3f}"
                  f"{bound:>7.2f}{'' if ok else '  DISAGREE'}")
        for tag, res in (("a", a), ("b", b)):
            if res["failed"]:
                bad += 1
                print(f"{name:<14}failed_share (set {tag}) = {res['failed_share']:.4f}  FAILED")
    print(f"\n{'sets agree within the bounds' if not bad else f'{bad} cells disagree'}")
    return 1 if bad else 0


# ------------------------------------------------------------------ main
def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated benchmark unwinds like a finished one, so the pools
    # close and stop_children() runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.repeat_check:
        return repeat_check(args)
    import_s = _import_program()
    import harness

    try:
        return run(args, import_s)
    finally:
        harness.stop_children()


def run(args, import_s: float) -> int:
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    os.makedirs(OUT, exist_ok=True)
    doc = measure(names, args, import_s)
    print_report(doc)
    with open(os.path.join(OUT, "result.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if args.workload:
        # The caller reads ``correct``/``failed`` from the result line.
        print(contract_line(doc, args.workload, bool(args.trace)))
        return 0
    return 1 if any(res["failed"] for res in doc["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
