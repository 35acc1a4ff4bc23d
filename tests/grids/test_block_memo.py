"""Derived data memoised on its block (``StructuredBlock.memo``).

λ2, per-cell scalar intervals and the view-dependent BSP tree are
computed once per block and input set: every replacement route
recomputes, memoised arrays are read-only, and a DMS-resident block
answers a repeated command without a gradient pass or a tree build,
with the same bytes on both clocks.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.algorithms import iter_view_dependent_batches, lambda2_field
from repro.algorithms import lambda2 as lambda2_module
from repro.grids import BSPTree, StructuredBlock, velocity_gradient_tensor
from repro.grids import bsp as bsp_module
from repro.grids.block import LazyStructuredBlock
from repro.grids.summary import cell_field_minmax
from repro.synth import build_engine
from tests.conftest import cached_engine, paper_session


def _block(lazy=False):
    b = build_engine(base_resolution=4, n_timesteps=1).build_block(0, 3)
    if not lazy:
        return b
    raw = {n: f.astype("<f4") for n, f in b.fields.items()}
    return LazyStructuredBlock(b.coords, raw, block_id=b.block_id)


def _lambda2(block):
    return lambda2_field(block, "velocity")


def _minmax(block):
    return cell_field_minmax(block, "pressure")


def _bsp(block):
    for _ in iter_view_dependent_batches(block, "pressure", -0.3, np.zeros(3)):
        pass
    return block.memo(("bsp", "pressure", 64), ("pressure",), lambda: None)


PRODUCERS = {
    "lambda2": (_lambda2, "velocity"),
    "minmax": (_minmax, "pressure"),
    "bsp": (_bsp, "pressure"),
}


def _replace(block, route, name):
    new = block.field(name) * 1.5 + 0.25
    if route == "set_field":
        block.set_field(name, new)
    elif route == "fields[name]":
        block.fields[name] = new
    else:
        block.attach_raw_field(name, new.astype("<f4"))
    return block


def _same(a, b):
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, BSPTree):
        return (
            a._order.tobytes() == b._order.tobytes()
            and a._cell_min.tobytes() == b._cell_min.tobytes()
            and a._cell_max.tobytes() == b._cell_max.tobytes()
        )
    return a.tobytes() == b.tobytes()


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@pytest.mark.parametrize("route", ["set_field", "fields[name]", "attach_raw_field"])
def test_every_replacement_route_recomputes(producer, route):
    fn, reads = PRODUCERS[producer]
    block = _block(lazy=route == "attach_raw_field")
    first = fn(block)
    assert fn(block) is first  # a hit while nothing is replaced
    _replace(block, route, reads)
    again = fn(block)
    assert again is not first
    # The recomputed value is what a block built from the new arrays gives.
    fresh = StructuredBlock(block.coords, {n: block.field(n) for n in block.fields})
    assert _same(again, fn(fresh))
    assert not _same(again, first)


def test_replacing_an_unread_field_keeps_the_entry():
    block = _block()
    lam = _lambda2(block)
    lo_hi = _minmax(block)
    block.set_field("pressure", block.field("pressure") + 1.0)
    assert _lambda2(block) is lam
    assert _minmax(block) is not lo_hi


def test_lambda2_is_keyed_by_velocity_name():
    block = _block()
    block.set_field("swirl", block.field("velocity")[..., ::-1].copy())
    lam = lambda2_field(block, "velocity")
    swirl = lambda2_field(block, "swirl")
    assert swirl.tobytes() != lam.tobytes()
    # Both entries stay: alternating names is a hit each time.
    assert lambda2_field(block, "velocity") is lam
    assert lambda2_field(block, "swirl") is swirl


def test_bsp_is_keyed_by_leaf_size(monkeypatch):
    block = _block()
    builds = []
    real_init = BSPTree.__init__

    def counting(self, *args, **kwargs):
        builds.append(kwargs.get("leaf_size", args[2] if len(args) > 2 else 64))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(bsp_module.BSPTree, "__init__", counting)
    for leaf_size in (8, 64, 8, 64):
        list(iter_view_dependent_batches(
            block, "pressure", -0.3, np.zeros(3), leaf_size=leaf_size
        ))
    assert builds == [8, 64]


def test_memoised_arrays_reject_in_place_writes():
    block = _block()
    _bsp(block)
    tree = block.memo(("bsp", "pressure", 64), ("pressure",), lambda: None)
    lo, hi = _minmax(block)
    for arr in (_lambda2(block), lo, hi, tree._cell_min, tree._order, tree._centers):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_a_memoised_tree_does_not_keep_its_block_alive():
    block = _block()
    _bsp(block)
    _lambda2(block)
    ref = weakref.ref(block)
    del block
    assert ref() is None  # freed by refcount: no block <-> tree cycle


def test_a_memoised_locator_does_not_keep_its_block_alive():
    from repro.grids.interpolate import CellLocator

    block = _block()
    locator = block.memo(("locator",), (), lambda: CellLocator(block))
    assert block.memo(("locator",), (), lambda: None) is locator
    assert locator.locate_one(*block.center().tolist()) is not None
    assert not locator._cell_corners.flags.writeable
    assert not locator._centers.flags.writeable
    ref = weakref.ref(block)
    gc.disable()
    try:
        del block
        assert ref() is None  # freed by refcount: no block <-> locator cycle
    finally:
        gc.enable()


def test_bsp_intervals_match_the_eight_corner_stack():
    def stacked(f):
        s = np.stack([
            f[:-1, :-1, :-1], f[1:, :-1, :-1], f[1:, 1:, :-1], f[:-1, 1:, :-1],
            f[:-1, :-1, 1:], f[1:, :-1, 1:], f[1:, 1:, 1:], f[:-1, 1:, 1:],
        ])
        return s.min(axis=0).reshape(-1), s.max(axis=0).reshape(-1)

    blocks = list(build_engine(base_resolution=10, n_timesteps=1).level(0))
    nan_block = _block()
    p = nan_block.field("pressure").copy()
    p[1, 2, 1] = np.nan
    p[0, 0, 0] = -0.0
    nan_block.set_field("pressure", p)
    for block in blocks + [nan_block]:
        tree = BSPTree(block, "pressure", leaf_size=8)
        lo, hi = stacked(block.field("pressure"))
        assert tree._cell_min.tobytes() == lo.tobytes()
        assert tree._cell_max.tobytes() == hi.tobytes()
    assert np.isnan(tree._cell_min).any()


# ------------------------------------------------------------ DES session
REPEATED = {
    "vortex-dataman": {"threshold": -0.5},
    "vortex-streamed": {"threshold": -0.5, "batch_cells": 64},
    "iso-dataman": {"isovalue": -0.3, "scalar": "pressure"},
    "iso-viewer": {"isovalue": -0.3, "scalar": "pressure", "viewpoint": (0, 0, 3)},
}


def _two_rounds(monkeypatch, memo: bool):
    """Run every REPEATED command twice in one session; return the
    second round's results and its gradient-pass and BSP-build counts."""
    if not memo:
        monkeypatch.setattr(
            StructuredBlock, "memo", lambda self, key, reads, build: build()
        )
    counts = {"gradient": 0, "bsp": 0}
    real_grad = velocity_gradient_tensor
    real_init = BSPTree.__init__

    def grad(*args, **kwargs):
        counts["gradient"] += 1
        return real_grad(*args, **kwargs)

    def init(self, *args, **kwargs):
        counts["bsp"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(lambda2_module, "velocity_gradient_tensor", grad)
    monkeypatch.setattr(bsp_module.BSPTree, "__init__", init)
    session = paper_session(cached_engine(4, 2), 2)
    params = {"time_range": (0, 2)}
    for name, p in REPEATED.items():
        session.run(name, params={**params, **p})
    before = dict(counts)
    second = {
        name: session.run(name, params={**params, **p})
        for name, p in REPEATED.items()
    }
    monkeypatch.undo()
    return second, {k: counts[k] - before[k] for k in counts}


def test_resident_blocks_rerun_byte_equal_without_recomputation(monkeypatch):
    warm, calls = _two_rounds(monkeypatch, memo=True)
    plain, plain_calls = _two_rounds(monkeypatch, memo=False)
    # Every block stays DMS-resident, so the second round derives nothing.
    assert calls == {"gradient": 0, "bsp": 0}
    assert plain_calls["gradient"] > 0 and plain_calls["bsp"] > 0
    for name in REPEATED:
        assert warm[name].dms["misses"] == 0
        assert warm[name].total_runtime == plain[name].total_runtime, name
        assert warm[name].geometry.vertices.tobytes() == plain[name].geometry.vertices.tobytes()
        assert warm[name].geometry.n_triangles > 0
