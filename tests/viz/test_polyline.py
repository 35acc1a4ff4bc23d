"""Tests for PolylineSet."""

import numpy as np
import pytest

from repro.algorithms import Pathline
from repro.viz import PolylineSet


def simple_path(n=4, x0=0.0):
    pts = np.zeros((n, 3))
    pts[:, 0] = x0 + np.arange(n)
    return Pathline(
        seed=pts[0].copy(),
        points=pts,
        times=np.arange(n, dtype=float),
        termination="end_time",
    )


def test_empty_set():
    ps = PolylineSet()
    assert ps.is_empty()
    assert ps.n_lines == 0
    assert ps.bounds() is None


def test_validation():
    with pytest.raises(ValueError):
        PolylineSet(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PolylineSet(np.zeros((3, 3)), offsets=[0, 2])  # doesn't end at n
    with pytest.raises(ValueError):
        PolylineSet(np.zeros((3, 3)), offsets=[0, 2, 1, 3])
    with pytest.raises(ValueError):
        PolylineSet(np.zeros((3, 3)), attributes={"t": np.zeros(2)})


def test_single_implicit_line():
    ps = PolylineSet(np.zeros((5, 3)))
    assert ps.n_lines == 1
    assert len(ps.line(0)) == 5


def test_from_pathlines_structure():
    ps = PolylineSet.from_pathlines([simple_path(4), simple_path(3, x0=10.0)])
    assert ps.n_lines == 2
    assert ps.n_vertices == 7
    np.testing.assert_allclose(ps.line(1)[0], [10, 0, 0])
    assert set(ps.attributes) == {"time", "speed"}
    # Unit spacing at unit time steps -> speed 1 everywhere.
    np.testing.assert_allclose(ps.attributes["speed"], 1.0)
    np.testing.assert_allclose(ps.attributes["time"][:4], [0, 1, 2, 3])


def test_line_index_errors():
    ps = PolylineSet.from_pathlines([simple_path(3)])
    with pytest.raises(IndexError):
        ps.line(1)


def test_merge():
    a = PolylineSet.from_pathlines([simple_path(3)])
    b = PolylineSet.from_pathlines([simple_path(2, x0=5.0), simple_path(4, x0=9.0)])
    merged = PolylineSet.merge([a, None, PolylineSet(), b])
    assert merged.n_lines == 3
    assert merged.n_vertices == 9
    np.testing.assert_allclose(merged.line(2)[0], [9, 0, 0])
    assert "time" in merged.attributes


def test_bounds_and_nbytes():
    ps = PolylineSet.from_pathlines([simple_path(3)])
    b = ps.bounds()
    np.testing.assert_allclose(b[0], [0, 0, 0])
    np.testing.assert_allclose(b[1], [2, 0, 0])
    assert ps.nbytes == ps.vertices.nbytes + 2 * 3 * 8


def test_from_pathlines_single_point_path():
    p = Pathline(
        seed=np.zeros(3),
        points=np.zeros((1, 3)),
        times=np.zeros(1),
        termination="left_domain",
    )
    ps = PolylineSet.from_pathlines([p])
    assert ps.n_lines == 1
    np.testing.assert_allclose(ps.attributes["speed"], 0.0)
