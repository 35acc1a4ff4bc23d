#!/usr/bin/env python3
"""Full on-disk workflow: write a dataset, reopen it, post-process it.

Shows the library's I/O substrate end to end: a synthetic solution is
exported to the binary multi-block store (one ``.blk`` file per block
per time level, like a solver would leave behind), reopened through
:class:`~repro.io.DatasetStore`, mapped read-only by
:class:`~repro.parallel.ShmBlockStore` and post-processed through the
same Viracocha session API — plus a direct (framework-free) use of the
algorithm layer on the loaded blocks.

Run:  python examples/ondisk_dataset_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ViracochaSession, build_engine
from repro.algorithms import extract_cutplane, extract_isosurface
from repro.bench import paper_cluster, paper_costs
from repro.io import DatasetStore, write_dataset
from repro.parallel import ShmBlockStore


def main() -> None:
    engine = build_engine(base_resolution=5, n_timesteps=4)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "engine_export"

        # --- export: what a CFD solver post-run step would do ---------
        levels = [engine.level(t) for t in range(4)]
        store = write_dataset(
            root,
            levels,
            modeled_shapes=list(engine.spec.modeled_shapes),
            times=engine.spec.times[:4],
        )
        n_files = len(list(root.glob("*.blk")))
        size_mb = sum(f.stat().st_size for f in root.glob("*.blk")) / 1024**2
        print(f"exported {n_files} block files ({size_mb:.1f} MB actual) to {root}")

        # --- reopen and post-process through the framework ------------
        reopened = DatasetStore(root)
        with ShmBlockStore.from_store(reopened) as mapped:
            session = ViracochaSession(
                mapped,
                cluster_config=paper_cluster(2),
                costs=paper_costs(),
            )
            result = session.run(
                "iso-dataman",
                params={"isovalue": -0.3, "scalar": "pressure", "time_range": (0, 1)},
            )
        print(f"framework isosurface: {result.geometry.n_triangles} triangles "
              f"in {result.total_runtime:.1f} simulated s")

        # --- or use the algorithm layer directly (no framework) -------
        level0 = reopened.read_level(0)
        iso = extract_isosurface(level0, "pressure", -0.3)
        cut = extract_cutplane(level0, np.array([0.0, 0.0, 1.0]), offset=1.0,
                               attributes=["pressure"])
        print(f"direct extraction:    {iso.n_triangles} triangles "
              f"(matches framework: {iso.n_triangles == result.geometry.n_triangles})")
        print(f"cut plane z=1.0:      {cut.n_triangles} triangles, "
              f"pressure on cut in [{cut.attributes['pressure'].min():.2f}, "
              f"{cut.attributes['pressure'].max():.2f}]")


if __name__ == "__main__":
    main()
