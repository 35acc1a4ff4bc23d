"""Top-level package smoke tests."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_public_names():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_store_source_session_end_to_end(tmp_path):
    """Framework over an on-disk store: the full I/O path in one test."""
    from repro import ViracochaSession, build_engine
    from repro.bench import paper_cluster, paper_costs
    from repro.dms import StoreSource
    from repro.io import DatasetStore, write_dataset

    engine = build_engine(base_resolution=4, n_timesteps=2)
    write_dataset(
        tmp_path / "store",
        [engine.level(0), engine.level(1)],
        modeled_shapes=list(engine.spec.modeled_shapes),
        times=engine.spec.times[:2],
    )
    session = ViracochaSession(
        StoreSource(DatasetStore(tmp_path / "store")),
        cluster_config=paper_cluster(2),
        costs=paper_costs(),
    )
    result = session.run(
        "iso-dataman",
        params={"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)},
    )
    from repro.algorithms import extract_isosurface

    direct = extract_isosurface(engine.level(0), "pressure", -0.3)
    # float32 round-trip through the store may perturb values near the
    # isovalue; triangle counts must still agree closely.
    assert abs(result.geometry.n_triangles - direct.n_triangles) <= max(
        2, direct.n_triangles // 50
    )
