"""The fused velocity-gradient tensor reproduces the reference chain's bits.

:func:`repro.grids.geometry.velocity_gradient_tensor` computes in one
pass what :mod:`tests.grids.geometry_reference` computes step by step
(``np.gradient``, Jacobian, adjugate inverse, ``np.einsum``).  Every
case here compares the two, and λ2 on top of them, bit for bit; a NaN
must sit exactly where the reference has one.

The cases that break a near-miss rewrite: exactly-zero determinants
from a flattened lattice axis (a determinant whose zero changes sign
cancels the ε guard and divides by zero), signed zeros, NaN and ±inf
velocity, 2-point axes (edge differences only), slab views and ``<f4``
blocks viewed from shared memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lambda2 import lambda2_field, lambda2_points
from repro.grids import StructuredBlock, velocity_gradient_tensor
from repro.parallel import ShmBlockStore
from repro.synth import build_engine, build_propfan, cartesian_lattice, warp_lattice

from . import geometry_reference as ref


def assert_bits_equal(ours: np.ndarray, oracle: np.ndarray) -> None:
    """Same shape, NaN where the oracle has NaN, identical bits elsewhere."""
    assert ours.shape == oracle.shape
    assert ours.dtype == oracle.dtype == np.float64
    nan = np.isnan(oracle)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    mismatched = ours[~nan].view(np.uint64) != oracle[~nan].view(np.uint64)
    assert not mismatched.any(), (
        f"{int(mismatched.sum())} of {mismatched.size} entries differ in their bits"
    )


def assert_matches_oracle(block: StructuredBlock) -> None:
    with np.errstate(all="ignore"):
        g = velocity_gradient_tensor(block)
        expected = ref.velocity_gradient_tensor(block)
        lam = lambda2_field(block)
        expected_lam = lambda2_points(expected)
    assert g.flags.c_contiguous
    assert_bits_equal(g, expected)
    assert_bits_equal(lam, expected_lam)


#: How :func:`random_block` maps its lattice: not at all, by an exact
#: axis permutation with reflections (Jacobian entries keep their exact
#: zeros but take either sign), or by a dense random matrix.
MAPS = ("identity", "signed-permutation", "dense")


def random_block(
    rng: np.random.Generator,
    shape: tuple[int, int, int],
    flat_axis: int | None = None,
    specials: bool = False,
    signed_zeros: bool = False,
    mapping: str = "identity",
) -> StructuredBlock:
    """A warped block with random velocity and optional hostile values.

    ``flat_axis`` collapses one lattice axis onto its first layer, so
    that axis contributes a zero Jacobian column and the determinant is
    exactly ``±0`` at every point; ``mapping`` (one of :data:`MAPS`)
    decides the signs of the other entries.
    """
    hi = rng.uniform(0.5, 2.0, 3)
    coords = warp_lattice(
        cartesian_lattice((0.0, 0.0, 0.0), tuple(hi), shape),
        amplitude=float(rng.choice([0.0, rng.uniform(0.0, 0.1)])),
    )
    if mapping == "signed-permutation":
        perm = rng.permutation(3)
        coords = coords[..., perm] * rng.choice([-1.0, 1.0], 3)
    elif mapping == "dense":
        coords = coords @ rng.standard_normal((3, 3))
    if flat_axis is not None:
        index = [slice(None)] * 3
        index[flat_axis] = slice(0, 1)
        coords = np.broadcast_to(coords[tuple(index)], coords.shape).copy()
    u = rng.standard_normal(shape + (3,))
    if signed_zeros:
        u[rng.random(u.shape) < 0.5] = 0.0
        u = np.copysign(u, rng.choice([-1.0, 1.0], u.shape))
        coords = np.where(coords == 0.0, -0.0, coords)
    if specials:
        hostile = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
        mask = rng.random(u.shape) < 0.05
        u[mask] = rng.choice(hostile, int(mask.sum()))
    return StructuredBlock(coords, {"velocity": u})


@st.composite
def blocks(draw):
    shape = tuple(draw(st.integers(2, 9)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_block(
        rng,
        shape,
        flat_axis=draw(st.one_of(st.none(), st.integers(0, 2))),
        specials=draw(st.booleans()),
        signed_zeros=draw(st.booleans()),
        mapping=draw(st.sampled_from(MAPS)),
    )


@given(block=blocks())
@settings(max_examples=150, deadline=None)
def test_random_blocks_match_the_oracle(block):
    assert_matches_oracle(block)


@pytest.mark.parametrize("flat_axis", [0, 1, 2])
def test_flattened_axis_zero_determinants(flat_axis):
    """Every determinant is exactly zero: the ε guard alone sets the bits."""
    rng = np.random.default_rng(100 + flat_axis)
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(2, 8, 3))
        block = random_block(
            rng, shape, flat_axis=flat_axis, signed_zeros=bool(rng.integers(2)),
            mapping=MAPS[int(rng.integers(len(MAPS)))],
        )
        det = ref._det3(ref.jacobian(block))
        assert (det == 0.0).all()
        assert_matches_oracle(block)


def test_four_hundred_seeded_blocks():
    rng = np.random.default_rng(2004)
    for i in range(400):
        shape = tuple(int(n) for n in rng.integers(2, 10, 3))
        flat_axis = int(rng.integers(3)) if i % 4 == 0 else None
        block = random_block(
            rng, shape, flat_axis=flat_axis, specials=i % 5 == 0,
            signed_zeros=i % 3 == 0, mapping=MAPS[i % len(MAPS)],
        )
        assert_matches_oracle(block)


@pytest.mark.parametrize(
    "level",
    [
        pytest.param(lambda: build_engine(base_resolution=10, n_timesteps=1).level(0),
                     id="engine-10"),
        pytest.param(lambda: build_propfan(base_resolution=8, n_timesteps=1).level(0),
                     id="propfan-8"),
    ],
)
def test_every_dataset_block(level):
    for block in level():
        assert_matches_oracle(block)


def test_slab_views():
    """The ``coords[g0:g1]`` slabs the streamed vortex command builds."""
    for block in build_engine(base_resolution=10, n_timesteps=1).level(0):
        ni = block.shape[0]
        for g0 in range(ni - 1):
            for g1 in range(g0 + 2, min(g0 + 6, ni) + 1):
                slab = StructuredBlock(
                    block.coords[g0:g1], {"velocity": block.field("velocity")[g0:g1]}
                )
                assert_matches_oracle(slab)


def test_float32_blocks_from_shared_memory():
    """Lazy blocks whose ``<f4`` velocity is upcast on access."""
    engine = build_engine(base_resolution=10, n_timesteps=1)
    with ShmBlockStore.from_synthetic(engine) as shm:
        for b in range(shm.n_blocks):
            block = shm.get_block(0, b)
            assert block.fields.raw_view("velocity").dtype == np.dtype("<f4")
            assert_matches_oracle(block)
            del block


def test_rejects_a_scalar_field():
    block = random_block(np.random.default_rng(0), (4, 4, 4))
    block.set_field("p", np.zeros(block.shape))
    for fn in (velocity_gradient_tensor, ref.velocity_gradient_tensor):
        with pytest.raises(ValueError, match="not a vector"):
            fn(block, "p")


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_rejects_an_axis_with_one_point(axis):
    """``StructuredBlock`` refuses such a shape, so it is swapped in after."""
    block = random_block(np.random.default_rng(0), (4, 4, 4))
    layer = (slice(None),) * axis + (slice(0, 1),)
    block.coords = block.coords[layer]
    block.fields = {"velocity": block.field("velocity")[layer]}
    for fn in (velocity_gradient_tensor, ref.velocity_gradient_tensor):
        with pytest.raises(ValueError):
            fn(block)
