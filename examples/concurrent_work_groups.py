#!/usr/bin/env python3
"""Concurrent work groups + terminal visualization.

Two engineers share the cluster: one extracts a streamed λ2 vortex
surface, the other a view-dependent isosurface — submitted together,
each on its own work group ("as soon as enough processes are available,
they form a work group", §3).  A third full-width request then queues
behind them.  Results are checked against the §1.1 VR interaction
criteria and sketched in the terminal (the Figures 4/5 stand-in).

Run:  python examples/concurrent_work_groups.py
"""

from repro import ViracochaSession, build_engine
from repro.bench import paper_cluster, paper_costs
from repro.viz import render_ascii


def main() -> None:
    engine = build_engine(base_resolution=7, n_timesteps=4)
    session = ViracochaSession(
        engine, cluster_config=paper_cluster(4), costs=paper_costs()
    )
    iso = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}
    vortex = {"threshold": -0.5, "time_range": (0, 1)}

    print("submitting two 2-worker commands plus one queued 4-worker command\n")
    results = session.run_concurrent(
        [
            {"command": "iso-viewer",
             "params": {**iso, "viewpoint": (0, 0, -5), "max_triangles": 500},
             "group_size": 2},
            {"command": "vortex-streamed",
             "params": {**vortex, "batch_cells": 32}, "group_size": 2},
            {"command": "vortex-dataman", "params": vortex, "group_size": 4},
        ]
    )
    for r in results:
        report = r.interaction_report()
        print(f"{r.command:16s} group={r.group_size}  "
              f"first data {r.latency:6.1f} s, final {r.total_runtime:6.1f} s, "
              f"{r.geometry.n_triangles:6d} triangles, "
              f"frame rate {report['frame_rate_hz']:.0f} Hz "
              f"({'ok' if report['frame_rate_ok'] else 'VIOLATED'})")

    # The queued command only started once a work group freed up.
    assert results[2].total_runtime > results[1].total_runtime

    print("\nλ2 vortex regions, side view (xz projection):")
    print(render_ascii(results[2].geometry, "xz", width=64, height=18))


if __name__ == "__main__":
    main()
