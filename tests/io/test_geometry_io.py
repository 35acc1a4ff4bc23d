"""Tests for geometry serialization."""

import numpy as np
import pytest

from repro.io import FormatError
from repro.io.geometry_io import (
    geometry_from_bytes,
    geometry_to_bytes,
    load_geometry,
    save_geometry,
)
from repro.viz import PolylineSet, TriangleMesh


def sample_mesh():
    rng = np.random.default_rng(3)
    verts = rng.normal(size=(12, 3))
    return TriangleMesh(verts, {"pressure": rng.normal(size=12)})


def sample_polylines():
    rng = np.random.default_rng(4)
    verts = rng.normal(size=(7, 3))
    return PolylineSet(verts, [0, 3, 7], {"time": np.arange(7, dtype=float)})


def test_mesh_roundtrip():
    mesh = sample_mesh()
    out = geometry_from_bytes(geometry_to_bytes(mesh))
    assert isinstance(out, TriangleMesh)
    assert out.n_triangles == mesh.n_triangles
    np.testing.assert_allclose(out.vertices, mesh.vertices, atol=1e-6)
    np.testing.assert_allclose(
        out.attributes["pressure"], mesh.attributes["pressure"], atol=1e-6
    )


def test_polyline_roundtrip():
    lines = sample_polylines()
    out = geometry_from_bytes(geometry_to_bytes(lines))
    assert isinstance(out, PolylineSet)
    assert out.n_lines == 2
    assert out.offsets == lines.offsets
    np.testing.assert_allclose(out.vertices, lines.vertices, atol=1e-6)
    np.testing.assert_allclose(out.attributes["time"], np.arange(7), atol=1e-6)


def test_empty_mesh_roundtrip():
    out = geometry_from_bytes(geometry_to_bytes(TriangleMesh()))
    assert out.is_empty()


def test_file_roundtrip(tmp_path):
    mesh = sample_mesh()
    path = tmp_path / "result.virg"
    nbytes = save_geometry(path, mesh)
    assert path.stat().st_size == nbytes
    out = load_geometry(path)
    assert out.n_triangles == mesh.n_triangles


def test_float32_is_compact():
    mesh = sample_mesh()
    data = geometry_to_bytes(mesh)
    # float32 wire payload is about half the float64 in-memory size.
    assert len(data) < 0.6 * mesh.nbytes + 128


def test_bad_magic_rejected():
    data = bytearray(geometry_to_bytes(sample_mesh()))
    data[:4] = b"NOPE"
    with pytest.raises(FormatError, match="magic"):
        geometry_from_bytes(bytes(data))


def test_truncated_rejected():
    data = geometry_to_bytes(sample_mesh())
    with pytest.raises(FormatError, match="truncated"):
        geometry_from_bytes(data[:20])


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        geometry_to_bytes("a string")  # type: ignore[arg-type]


def test_extraction_result_roundtrip():
    """Real extracted geometry survives the wire format."""
    from repro import build_engine
    from repro.algorithms import extract_isosurface

    level = build_engine(base_resolution=5, n_timesteps=1).level(0)
    mesh = extract_isosurface(level, "pressure", -0.3, attributes=["pressure"])
    out = geometry_from_bytes(geometry_to_bytes(mesh))
    assert out.n_triangles == mesh.n_triangles
    assert out.area() == pytest.approx(mesh.area(), rel=1e-5)
