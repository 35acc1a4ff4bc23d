#!/usr/bin/env python3
"""Quickstart: extract an isosurface from the Engine dataset.

Builds the synthetic Engine dataset (the paper's 23-block combustion
engine intake flow), starts a Viracocha session on a simulated 4-worker
cluster, and runs one isosurface command — first without and then with
the Data Management System, reproducing the paper's headline effect.

Run:  python examples/quickstart.py
"""

from repro import ViracochaSession, build_engine
from repro.bench import paper_cluster, paper_costs


def main() -> None:
    # The Engine: 63 time steps x 23 curvilinear blocks, modeled at the
    # paper's 1.12 GB; actual arrays are laptop-sized.
    engine = build_engine(base_resolution=5)
    spec = engine.spec
    print(f"dataset: {spec.name}, {spec.n_timesteps} steps x {spec.n_blocks} blocks, "
          f"{spec.size_on_disk / 1024**3:.2f} GB modeled on disk")

    session = ViracochaSession(
        engine, cluster_config=paper_cluster(4), costs=paper_costs()
    )
    params = {"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)}

    # Without the DMS every block read hits the fileserver.
    simple = session.run("iso-simple", params=params)
    print(f"\nSimpleIso   (no DMS):   {simple.total_runtime:6.1f} s simulated, "
          f"{simple.geometry.n_triangles} triangles")

    # With the DMS: one warm-up call, then measure on cached data (§7).
    session.warm_cache("iso-dataman", params=params)
    dataman = session.run("iso-dataman", params=params)
    print(f"IsoDataMan  (cached):   {dataman.total_runtime:6.1f} s simulated, "
          f"speed-up {simple.total_runtime / dataman.total_runtime:.1f}x")

    # The streamed view-dependent variant: first results long before the
    # computation finishes.
    viewer = session.run(
        "iso-viewer",
        params={**params, "viewpoint": (0.0, 0.0, -5.0), "max_triangles": 1000},
    )
    print(f"ViewerIso   (streamed): {viewer.total_runtime:6.1f} s total, "
          f"first fragment after {viewer.latency:.2f} s "
          f"({viewer.n_packets} packets)")

    report = viewer.interaction_report()
    print(f"\nclient frame rate with the merged surface: "
          f"{report['frame_rate_hz']:.0f} Hz (VR criterion >= 10 Hz: "
          f"{'ok' if report['frame_rate_ok'] else 'VIOLATED'})")


if __name__ == "__main__":
    main()
