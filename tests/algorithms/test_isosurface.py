"""Correctness tests for isosurface extraction."""

import timeit

import numpy as np
import pytest

from repro.algorithms import (
    active_cell_indices,
    extract_block_isosurface,
    extract_isosurface,
    iter_view_dependent_batches,
)
from repro.algorithms.tet_tables import (
    HEX_CUT_EDGES,
    HEX_EDGE_COUNT,
    HEX_TO_TETS,
    HEX_TRI_CORNERS,
    HEX_TRI_COUNT,
    HEX_TRI_TABLE,
    TET_EDGES,
    TET_TRI_COUNT,
    TET_TRI_TABLE,
    build_hex_edge_tables,
    build_hex_tri_table,
)
from repro.grids import MultiBlockDataset, StructuredBlock
from repro.synth import cartesian_lattice, warp_lattice


def sphere_block(shape=(17, 17, 17), lo=(-1, -1, -1), hi=(1, 1, 1), warped=False):
    coords = cartesian_lattice(lo, hi, shape)
    if warped:
        coords = warp_lattice(coords, amplitude=0.015)
    b = StructuredBlock(coords)
    b.set_field("r", np.linalg.norm(b.coords, axis=-1))
    return b


# ----------------------------------------------------------------- tables


def test_tet_decomposition_covers_all_corners():
    assert set(HEX_TO_TETS.reshape(-1).tolist()) == set(range(8))


def test_tet_tri_table_counts_match():
    for case in range(16):
        valid = (TET_TRI_TABLE[case, :, 0] >= 0).sum()
        assert valid == TET_TRI_COUNT[case]
    assert TET_TRI_COUNT[0] == 0
    assert TET_TRI_COUNT[15] == 0
    # 1 or 3 vertices inside -> one triangle; 2 inside -> two.
    for case in range(1, 15):
        bits = bin(case).count("1")
        assert TET_TRI_COUNT[case] == (2 if bits == 2 else 1)


def _tet_cases(code):
    """The six tet-local cases of hexahedron ``code`` (bit c: corner c inside)."""
    return [
        sum(((code >> int(corner)) & 1) << v for v, corner in enumerate(tet))
        for tet in HEX_TO_TETS
    ]


def test_hex_table_counts_are_the_sum_of_its_tet_cases():
    for code in range(256):
        assert HEX_TRI_COUNT[code] == sum(TET_TRI_COUNT[c] for c in _tet_cases(code))
        assert HEX_TRI_COUNT[code] == HEX_TRI_COUNT[255 - code]
    assert HEX_TRI_COUNT[0] == HEX_TRI_COUNT[255] == 0
    assert HEX_TRI_TABLE.shape == (256, 12, 3, 2)
    assert HEX_TRI_COUNT.max() == 12 and HEX_TRI_COUNT.sum() == 1920


def test_hex_table_lists_tet_triangles_in_order():
    """Row h is every (tet, triangle) the loop over h's six tets emits,
    each cut edge as its (corner, corner) pair in tet-table orientation."""
    for code in range(256):
        want = [
            [[tet[TET_EDGES[e, 0]], tet[TET_EDGES[e, 1]]] for e in tri]
            for tet, case in zip(HEX_TO_TETS, _tet_cases(code))
            for tri in TET_TRI_TABLE[case]
            if tri[0] >= 0
        ]
        got = HEX_TRI_TABLE[code, : HEX_TRI_COUNT[code]]
        assert got.tolist() == want


def test_hex_table_build_is_cheap():
    """Built at import time, so every ``import repro.algorithms`` pays it."""
    best = min(timeit.repeat(build_hex_tri_table, number=1, repeat=20))
    assert best < 2e-3


def test_edge_tables_expand_to_the_triangle_table():
    """Each triangle corner's index through its code's cut-edge list
    gives back the (corner, corner) pair the triangle table lists."""
    for code in range(256):
        n = HEX_TRI_COUNT[code]
        edges = HEX_CUT_EDGES[code, : HEX_EDGE_COUNT[code]]
        corners = HEX_TRI_CORNERS[code, :n]
        assert corners.min(initial=0) >= 0
        assert corners.max(initial=-1) < len(edges)
        assert edges[corners].tolist() == HEX_TRI_TABLE[code, :n].tolist()
        # Every listed edge is used, and listed once.
        assert sorted(set(corners.reshape(-1).tolist())) == list(range(len(edges)))
        assert len({tuple(e) for e in edges.tolist()}) == len(edges)


def test_no_code_cuts_one_edge_in_both_orientations():
    """One point per (corner, corner) key is exact only if no code
    interpolates an edge from both of its ends."""
    for code in range(256):
        pairs = {tuple(p) for p in HEX_TRI_TABLE[code, : HEX_TRI_COUNT[code]]
                 .reshape(-1, 2).tolist()}
        assert not {(b, a) for a, b in pairs} & pairs, code


def test_edge_table_build_is_cheap():
    """Built at import time too."""
    best = min(timeit.repeat(build_hex_edge_tables, number=1, repeat=20))
    assert best < 2e-3


def test_tet_decomposition_volume_partition():
    """The six tets exactly fill the unit cube (volume 1)."""
    corners = np.array(
        [
            [0, 0, 0],
            [1, 0, 0],
            [1, 1, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 1],
            [1, 1, 1],
            [0, 1, 1],
        ],
        dtype=float,
    )
    total = 0.0
    for tet in HEX_TO_TETS:
        p = corners[tet]
        total += abs(np.linalg.det(p[1:] - p[0])) / 6.0
    assert total == pytest.approx(1.0)


# ------------------------------------------------------------ extraction


def test_active_cells_match_interval_test():
    b = sphere_block((9, 9, 9))
    active = set(active_cell_indices(b, "r", 0.7).tolist())
    cj, ck = b.cell_shape[1], b.cell_shape[2]
    for flat, (i, j, k) in enumerate(b.iter_cells()):
        vals = b.cell_corner_values("r", i, j, k)
        expected = vals.min() <= 0.7 <= vals.max()
        assert (flat in active) == expected


def test_sphere_isosurface_vertices_on_sphere():
    b = sphere_block((21, 21, 21))
    mesh = extract_block_isosurface(b, "r", 0.6)
    assert mesh.n_triangles > 100
    radii = np.linalg.norm(mesh.vertices, axis=1)
    # Linear interpolation of r along tet edges is first-order accurate.
    np.testing.assert_allclose(radii, 0.6, atol=0.02)


def test_sphere_isosurface_area_converges():
    b = sphere_block((25, 25, 25))
    mesh = extract_block_isosurface(b, "r", 0.6)
    analytic = 4.0 * np.pi * 0.6**2
    assert mesh.area() == pytest.approx(analytic, rel=0.03)


def test_isosurface_normals_point_radially():
    b = sphere_block((21, 21, 21))
    mesh = extract_block_isosurface(b, "r", 0.6)
    centers = mesh.triangles.mean(axis=1)
    radial = centers / np.linalg.norm(centers, axis=1, keepdims=True)
    alignment = np.abs(np.einsum("ij,ij->i", mesh.normals(), radial))
    # Orientation is unconstrained but normals must be near-radial.
    assert np.median(alignment) > 0.95


def test_out_of_range_isovalue_empty():
    b = sphere_block((9, 9, 9))
    mesh = extract_block_isosurface(b, "r", 99.0)
    assert mesh.is_empty()
    assert mesh.area() == 0.0


def test_streamed_batches_union_equals_batch_result():
    """Fig 4's qualitative claim: fragments accumulate to the final surface."""
    b = sphere_block((15, 15, 15), warped=True)
    batch = extract_block_isosurface(b, "r", 0.55)
    fragments = list(
        iter_view_dependent_batches(b, "r", 0.55, np.zeros(3), max_triangles=40)
    )
    assert len(fragments) > 1
    merged_area = sum(f.area() for f in fragments)
    assert merged_area == pytest.approx(batch.area(), rel=1e-9)
    assert sum(f.n_triangles for f in fragments) == batch.n_triangles


def test_batch_cells_validation():
    b = sphere_block((5, 5, 5))
    with pytest.raises(ValueError):
        list(iter_view_dependent_batches(b, "r", 0.5, np.zeros(3), max_triangles=0))


def test_multiblock_isosurface_is_crack_free_in_area():
    """Two abutting blocks extract the same total area as one block."""
    whole = sphere_block((17, 17, 17))
    left = StructuredBlock(whole.coords[:9], block_id=0)
    left.set_field("r", whole.field("r")[:9])
    right = StructuredBlock(whole.coords[8:], block_id=1)
    right.set_field("r", whole.field("r")[8:])
    ds = MultiBlockDataset([left, right])
    split_mesh = extract_isosurface(ds, "r", 0.6)
    whole_mesh = extract_block_isosurface(whole, "r", 0.6)
    assert split_mesh.area() == pytest.approx(whole_mesh.area(), rel=1e-9)
    assert split_mesh.n_triangles == whole_mesh.n_triangles


def test_boundary_edges_match_across_blocks():
    """Crack-freeness: cut segments on the shared face coincide."""
    whole = sphere_block((11, 11, 11))
    left = StructuredBlock(whole.coords[:6], block_id=0)
    left.set_field("r", whole.field("r")[:6])
    right = StructuredBlock(whole.coords[5:], block_id=1)
    right.set_field("r", whole.field("r")[5:])
    x_face = whole.coords[5, 0, 0, 0]

    def face_points(mesh):
        v = mesh.vertices
        on_face = np.abs(v[:, 0] - x_face) < 1e-9
        pts = v[on_face]
        return set(map(tuple, np.round(pts, 9).tolist()))

    lm = extract_block_isosurface(left, "r", 0.6)
    rm = extract_block_isosurface(right, "r", 0.6)
    lp, rp = face_points(lm), face_points(rm)
    assert lp and lp == rp


def test_attribute_interpolation_on_surface():
    b = sphere_block((13, 13, 13))
    b.set_field("marker", b.field("r") * 10.0)
    mesh = extract_block_isosurface(b, "r", 0.6, attributes=["marker"])
    assert "marker" in mesh.attributes
    np.testing.assert_allclose(mesh.attributes["marker"], 6.0, atol=0.2)


def test_empty_cell_subset_yields_empty_mesh():
    b = sphere_block((5, 5, 5))
    mesh = extract_block_isosurface(b, "r", 0.5, cell_indices=np.empty(0, dtype=int))
    assert mesh.is_empty()


def test_isosurface_on_warped_grid():
    b = sphere_block((17, 17, 17), warped=True)
    mesh = extract_block_isosurface(b, "r", 0.6)
    assert mesh.n_triangles > 100
    radii = np.linalg.norm(mesh.vertices, axis=1)
    np.testing.assert_allclose(radii, 0.6, atol=0.03)


# ------------------------------------------------- corner min/max pinning


def _corner_stack_minmax(f):
    """The (8, ...) corner-stack reduction ``active_cell_indices`` and
    ``cell_field_minmax`` used before they shared the separable fold."""
    stacked = np.stack(
        [
            f[:-1, :-1, :-1], f[1:, :-1, :-1], f[1:, 1:, :-1], f[:-1, 1:, :-1],
            f[:-1, :-1, 1:], f[1:, :-1, 1:], f[1:, 1:, 1:], f[:-1, 1:, 1:],
        ]
    )
    return stacked.min(axis=0), stacked.max(axis=0)


@pytest.mark.parametrize("kind", ["random", "constant", "nan", "inf", "signed-zero"])
def test_separable_corner_minmax_bit_equal_to_corner_stack(kind):
    from repro.grids.summary import cell_field_minmax

    rng = np.random.default_rng(11)
    shape = (6, 5, 4)
    f = rng.normal(size=shape)
    if kind == "constant":
        f = np.full(shape, 0.25)
    elif kind == "nan":
        f[rng.random(shape) < 0.1] = np.nan
    elif kind == "inf":
        f[rng.random(shape) < 0.1] = np.inf
        f[rng.random(shape) < 0.1] = -np.inf
    elif kind == "signed-zero":
        f = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    b = StructuredBlock(cartesian_lattice((0, 0, 0), (1, 1, 1), shape), {"s": f})
    want_lo, want_hi = _corner_stack_minmax(f)
    lo, hi = cell_field_minmax(b, "s")
    # Equal as values everywhere, NaN in the same cells (array_equal
    # treats -0.0 == 0.0, as every consumer's comparison does).
    assert np.array_equal(lo, want_lo.reshape(-1), equal_nan=True)
    assert np.array_equal(hi, want_hi.reshape(-1), equal_nan=True)
    for isovalue in (0.25, 0.0, -0.3, float(np.nanmax(f[np.isfinite(f)]))):
        want = np.nonzero(
            ((want_lo <= isovalue) & (want_hi >= isovalue)).reshape(-1)
        )[0]
        got = active_cell_indices(b, "s", isovalue)
        assert got.dtype == want.dtype and np.array_equal(got, want)
