"""Tests for time-interpolated levels."""

import numpy as np
import pytest

from repro.grids import MultiBlockDataset, StructuredBlock, TimeSeries
from repro.synth import cartesian_lattice


def make_series():
    def level(i):
        b = StructuredBlock(
            cartesian_lattice((0, 0, 0), (1, 1, 1), (3, 3, 3)), block_id=0
        )
        b.set_field("p", np.full(b.shape, float(i)))
        b.set_field("velocity", np.full(b.shape + (3,), float(i)))
        return MultiBlockDataset([b], name="s", time=float(i))

    return TimeSeries([0.0, 1.0, 2.0], level)


def test_interpolate_midpoint_blends_fields():
    series = make_series()
    mid = series.interpolate_level(0.5)
    np.testing.assert_allclose(mid[0].field("p"), 0.5)
    np.testing.assert_allclose(mid[0].field("velocity"), 0.5)
    assert mid.time == pytest.approx(0.5)


def test_interpolate_at_level_returns_exact_level():
    series = make_series()
    exact = series.interpolate_level(1.0)
    np.testing.assert_allclose(exact[0].field("p"), 1.0)


def test_interpolate_clamps_outside_range():
    series = make_series()
    np.testing.assert_allclose(series.interpolate_level(-5.0)[0].field("p"), 0.0)
    np.testing.assert_allclose(series.interpolate_level(99.0)[0].field("p"), 2.0)


def test_interpolate_weight_is_linear():
    series = make_series()
    q = series.interpolate_level(1.25)
    np.testing.assert_allclose(q[0].field("p"), 1.25)


def test_interpolated_level_feeds_extraction():
    from repro.algorithms import extract_isosurface

    series = make_series()
    # p crosses 0.5 exactly between the first two levels.
    level = series.interpolate_level(0.5)
    mesh = extract_isosurface(level, "p", 0.4)
    assert mesh.is_empty()  # constant field 0.5: no 0.4-crossing inside
    level2 = series.interpolate_level(0.5)
    assert level2[0].field("p").min() == pytest.approx(0.5)
