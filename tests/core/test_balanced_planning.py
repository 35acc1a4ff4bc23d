"""Tests for cost-balanced (LPT) work distribution."""

from repro import ViracochaSession, build_engine
from repro.bench import paper_cluster, paper_costs
from repro.core import lpt_order


def test_lpt_order_tie_breaks_pinned():
    """Equal-cost items must order by ascending index on any platform.

    The simulated fingerprints, the parallel equivalence suite and both
    dynamic schedulers all assume this exact order for ties; a sort
    implementation detail silently changing it would break byte-level
    reproducibility, so the rule is pinned here.
    """
    assert lpt_order([]) == []
    assert lpt_order([1.0, 1.0, 1.0, 1.0]) == [0, 1, 2, 3]
    assert lpt_order([2.0, 1.0, 2.0, 1.0, 3.0]) == [4, 0, 2, 1, 3]
    # Integer and float weights that compare equal tie-break the same.
    assert lpt_order([1, 1.0, 2, 2.0]) == [2, 3, 0, 1]


def test_balanced_distribution_no_regression_and_same_result():
    """The LPT drain (``schedule="dynamic"``) never loses to the
    round-robin deal and produces the same geometry.

    (On the Engine's 18 equal-sized cylinder blocks both hit the same
    two-big-blocks-per-worker bound, so the makespans tie.)
    """
    engine = build_engine(base_resolution=5)
    params = {"threshold": -0.5, "time_range": (0, 1)}
    session = ViracochaSession(
        engine, cluster_config=paper_cluster(8), costs=paper_costs()
    )
    session.warm_cache("vortex-dataman", params=params)
    rr = session.run("vortex-dataman", params=params)
    balanced = session.run(
        "vortex-dataman", params={**params, "schedule": "dynamic"}
    )
    assert balanced.geometry.n_triangles == rr.geometry.n_triangles
    assert balanced.total_runtime <= rr.total_runtime * 1.01
