#!/usr/bin/env python3
"""Pressure-colored cut planes through the Engine intake flow.

Slices the cylinder at three heights, interpolates pressure onto each
cut, and sketches the cut meshes in the terminal — classic slice-based
CFD post-processing on top of the same tetrahedral machinery that
powers the paper's isosurfaces.

Run:  python examples/pressure_slices.py
"""

import numpy as np

from repro import build_engine
from repro.algorithms import extract_cutplane
from repro.viz import render_ascii


def main() -> None:
    engine = build_engine(base_resolution=8, n_timesteps=1)
    level = engine.level(0)
    lo, hi = level.scalar_range("pressure")
    print(f"pressure range [{lo:.2f}, {hi:.2f}]\n")

    bounds = level.bounds()
    for z in (0.3, 0.8, 1.3):
        cut = extract_cutplane(level, np.array([0.0, 0.0, 1.0]), z, ["pressure"])
        p = cut.attributes["pressure"]
        print(f"slice z = {z}: {cut.n_triangles} triangles, "
              f"pressure on the cut [{p.min():.2f}, {p.max():.2f}]")
        print(render_ascii(cut, "xy", width=48, height=15, bounds=bounds))
        print()


if __name__ == "__main__":
    main()
