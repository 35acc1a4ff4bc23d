"""The hex-case kernel emits the same bytes as the per-tet reference.

``extract_block_isosurface`` looks each cell up once in the 256-case
hexahedron table and gathers cut-edge endpoints straight from the block;
``tests/algorithms/iso_reference.py`` is the kernel it replaced, which
expands every cell into six tetrahedra.  Every extraction on both clocks
(iso, λ2 vortex, cut plane, progressive, view-dependent batches) runs
through this kernel, so the goldens rest on this identity: vertex bytes,
attribute names and order, and attribute bytes, with no tolerance.

Scalars are drawn from a pool holding the isovalue and its ±1-ulp
neighbours, so cut points land exactly on corners (``t`` in {0, 1}) and
triangles collapse to zero area; NaN corners reach the ``0.5`` branch of
the interpolation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import extract_block_isosurface, lambda2_field
from repro.algorithms.cutplane import plane_distance_field
from repro.algorithms.tet_tables import HEX_TRI_COUNT
from repro.grids import StructuredBlock
from repro.synth import build_engine, build_propfan, cartesian_lattice, warp_lattice
from repro.viz.mesh import triangle_areas
from tests.algorithms import iso_reference


def assert_same_bytes(got, want):
    assert got.vertices.shape == want.vertices.shape
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert list(got.attributes) == list(want.attributes)
    for name, data in want.attributes.items():
        assert got.attributes[name].shape == data.shape
        assert got.attributes[name].tobytes() == data.tobytes()


def assert_kernels_agree(block, scalar, isovalue, cells=None, attributes=None):
    got = extract_block_isosurface(block, scalar, isovalue, cells, attributes)
    want = iso_reference.extract_block_isosurface(
        block, scalar, isovalue, cells, attributes
    )
    assert_same_bytes(got, want)
    return want


# ------------------------------------------------------------ hypothesis
ISOVALUES = [0.0, 0.5, -1.25, 0.1, 3e-7]


@st.composite
def cases(draw):
    shape = tuple(draw(st.integers(2, 7)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = warp_lattice(
        cartesian_lattice((0, 0, 0), (1, 1, 1), shape),
        amplitude=draw(st.sampled_from([0.0, 0.02, 0.05])),
    )
    coords += rng.uniform(-0.1, 0.1, coords.shape) / max(shape)
    iso = draw(st.sampled_from(ISOVALUES))
    pool = np.array(
        [iso, np.nextafter(iso, -np.inf), np.nextafter(iso, np.inf),
         iso - 1.0, iso + 1.0, iso - 0.25, iso + 0.5]
    )
    kind = draw(st.sampled_from(["pool", "mixed", "constant", "nan"]))
    if kind == "constant":
        field = np.full(shape, draw(st.sampled_from(pool.tolist())))
    else:
        field = rng.choice(pool, size=shape)
    if kind == "mixed":
        smooth = iso + rng.normal(size=shape)
        field = np.where(rng.random(shape) < 0.5, field, smooth)
    if kind == "nan":
        field[rng.random(shape) < 0.15] = np.nan
    attributes = [f"a{i}" for i in range(draw(st.integers(0, 2)))]
    fields = {"s": field, **{a: rng.normal(size=shape) for a in attributes}}
    block = StructuredBlock(coords, fields)
    subset = draw(st.sampled_from(["active", "all", "some"]))
    cells = None
    if subset == "all":
        cells = rng.permutation(block.n_cells)
    elif subset == "some":
        cells = rng.choice(block.n_cells, size=rng.integers(1, block.n_cells + 1))
    return block, iso, cells, attributes


@given(cases())
@settings(max_examples=300, deadline=None)
def test_random_blocks_are_byte_identical(case):
    block, iso, cells, attributes = case
    assert_kernels_agree(block, "s", iso, cells, attributes)


def test_the_pool_reaches_corner_hits_and_degenerate_triangles():
    """The cases the pool exists for do occur: cut points exactly on
    corners, and zero-area triangles that the filter drops."""
    shape = (4, 4, 4)
    rng = np.random.default_rng(3)
    coords = cartesian_lattice((0, 0, 0), (1, 1, 1), shape)
    field = rng.choice([0.0, np.nextafter(0.0, -1.0), 1.0, -1.0], size=shape)
    block = StructuredBlock(coords, {"s": field})
    mesh = assert_kernels_agree(block, "s", 0.0)
    corners, values = iso_reference.gather_cell_corners(
        block, "s", np.arange(block.n_cells)
    )
    codes = np.packbits(values < 0.0, axis=1, bitorder="little")[:, 0]
    assert 0 < mesh.n_triangles < HEX_TRI_COUNT[codes].sum()
    points = coords.reshape(-1, 3)
    on_corner = (mesh.vertices[:, None] == points[None]).all(axis=-1).any(axis=1)
    assert on_corner.any()


def test_triangle_areas_are_bit_equal_to_cross_and_norm():
    rng = np.random.default_rng(5)
    tris = rng.normal(size=(4000, 3, 3))
    tris[::3] *= 1e-7  # areas around the 1e-14 threshold
    tris[::5, 2] = tris[::5, 1]  # exact zeros
    tris[::7, 1] = tris[::7, 0] + 1e-9 * rng.normal(size=(len(tris[::7]), 3))
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    want = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    assert triangle_areas(tris).tobytes() == want.tobytes()


# ------------------------------------------------------------- real data
@pytest.fixture(scope="module")
def propfan_level():
    return build_propfan(base_resolution=14, n_timesteps=1).level(0)


@pytest.fixture(scope="module")
def engine_level():
    return build_engine(base_resolution=6, n_timesteps=1).level(0)


def test_propfan_iso_static_isovalues(propfan_level):
    """The nine isovalues of the ``iso_static`` benchmark design."""
    n_meshes = 0
    for iso in np.linspace(-3.2, -2.5, 9):
        for block in propfan_level:
            n_meshes += not assert_kernels_agree(block, "pressure", iso).is_empty()
    assert n_meshes > 200


def test_engine_lambda2_vortex_surfaces(engine_level):
    n_meshes = 0
    for block in engine_level:
        work = StructuredBlock(block.coords, {"lambda2": lambda2_field(block)})
        for threshold in (-1.1, -0.5, 0.0):
            n_meshes += not assert_kernels_agree(work, "lambda2", threshold).is_empty()
    assert n_meshes > 10


def test_cutplane_with_attributes(engine_level):
    n_meshes = 0
    for block in engine_level:
        for normal, offset in (((0, 0, 1), 0.8), ((1, 1, 0), 0.1)):
            work = StructuredBlock(block.coords, {
                "d": plane_distance_field(block, normal, offset),
                "pressure": block.field("pressure"),
                "speed": np.linalg.norm(block.field("velocity"), axis=-1),
            })
            mesh = assert_kernels_agree(work, "d", 0.0, attributes=["pressure", "speed"])
            n_meshes += not mesh.is_empty()
    assert n_meshes > 10
