"""Mesh-validity invariants of the synthetic datasets.

Extraction silently produces garbage on folded (negative-Jacobian)
cells, so the generators must never emit them.
"""

import numpy as np
import pytest

from repro.grids import cell_volumes
from repro.synth import build_engine, build_propfan
from tests.grids.geometry_reference import _det3, jacobian


@pytest.fixture(scope="module")
def engine_level():
    return build_engine(base_resolution=6, n_timesteps=1).level(0)


@pytest.fixture(scope="module")
def propfan_level():
    return build_propfan(base_resolution=5, n_timesteps=1).level(0)


def test_engine_cells_have_positive_volume(engine_level):
    for block in engine_level:
        vols = cell_volumes(block)
        assert vols.min() > 0, f"block {block.block_id} has degenerate cells"


def test_propfan_cells_have_positive_volume(propfan_level):
    for block in propfan_level:
        vols = cell_volumes(block)
        assert vols.min() > 0, f"block {block.block_id} has degenerate cells"


def test_engine_mapping_is_orientation_preserving(engine_level):
    """The warped lattice must not fold: det(J) keeps one sign."""
    for block in engine_level:
        det = _det3(jacobian(block))
        assert det.min() > 0 or det.max() < 0, (
            f"block {block.block_id} has a sign-changing Jacobian"
        )


def test_propfan_mapping_is_orientation_preserving(propfan_level):
    for block in propfan_level:
        det = _det3(jacobian(block))
        assert det.min() > 0 or det.max() < 0


def test_engine_fields_finite_across_all_levels():
    engine = build_engine(base_resolution=5, n_timesteps=3)
    for t in range(3):
        for block in engine.level(t):
            for data in block.fields.values():
                assert np.isfinite(data).all()


def test_dataset_cells_nonoverlapping_volume(engine_level):
    """Block volumes sum to roughly the domain volume (tiling, not
    overlapping): cylinder box 2x2x1.6 plus the port region."""
    total = sum(cell_volumes(b).sum() for b in engine_level)
    expected = 2.0 * 2.0 * 1.6 + 2.0 * 0.8 * 0.5
    assert total == pytest.approx(expected, rel=0.05)
