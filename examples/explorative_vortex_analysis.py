#!/usr/bin/env python3
"""Explorative λ2 vortex analysis — the paper's §1.1 workflow.

"The fundamental procedure is a trial and error approach, i.e., the
user continuously defines parameter values to extract features, which
are thereafter often rejected because of unsatisfying results."

This example plays that loop on the Propfan dataset: the engineer
sweeps the λ2 threshold ("in practice a value about zero is used"),
inspecting the first streamed partial results to reject unpromising
thresholds early — the exact scenario streaming was built for.

Run:  python examples/explorative_vortex_analysis.py
"""

from repro import ViracochaSession, build_propfan
from repro.bench import paper_cluster, paper_costs


def main() -> None:
    propfan = build_propfan(base_resolution=5)
    session = ViracochaSession(
        propfan, cluster_config=paper_cluster(8), costs=paper_costs()
    )

    print("explorative λ2 threshold sweep on the Propfan (8 workers)\n")
    print(f"{'threshold':>10} {'first result':>13} {'final':>9} "
          f"{'triangles':>10}  verdict")

    # Warm the cache once — the raw data is reused by every iteration,
    # which is precisely why the paper's global cache pays off in
    # "extensive interactive data analysis".
    session.warm_cache(
        "vortex-dataman", params={"threshold": -0.5, "time_range": (0, 1)}
    )

    for threshold in (-0.05, -0.2, -0.5, -1.0, -2.0):
        result = session.run(
            "vortex-streamed",
            params={
                "threshold": threshold,
                "time_range": (0, 1),
                "batch_cells": 16,
            },
        )
        tris = result.geometry.n_triangles
        if tris == 0:
            verdict = "empty - reject immediately"
        elif tris > 40_000:
            verdict = "noisy - reject after first packets"
        else:
            verdict = "promising - inspect fully"
        print(f"{threshold:>10.2f} {result.latency:>11.1f} s "
              f"{result.total_runtime:>7.1f} s {tris:>10}  {verdict}")

    agg = session.scheduler.aggregate_dms_stats()
    print(f"\nDMS over the whole session: {agg.requests} block requests, "
          f"hit rate {100 * agg.hit_rate:.0f}% "
          f"(the cache turns the sweep interactive)")


if __name__ == "__main__":
    main()
