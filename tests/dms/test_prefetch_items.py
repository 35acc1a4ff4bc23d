"""Tests for item naming and for the prefetcher family."""

import pytest

from repro.dms import (
    ItemName,
    MarkovOBLPrefetcher,
    MarkovPrefetcher,
    NameResolver,
    NameService,
    NoPrefetcher,
    OBLPrefetcher,
    PrefetchOnMissPrefetcher,
    SequenceOrder,
    block_item,
    make_prefetcher,
)


# ----------------------------------------------------------------- items


def test_item_name_str_and_params():
    item = block_item("engine", 3, 7)
    assert item.param("time") == 3
    assert item.param("block") == 7
    assert item.param("nope", "dflt") == "dflt"
    assert "engine" in str(item)
    assert "block=7" in str(item)


def test_item_name_equality_and_hash():
    a = block_item("engine", 1, 2)
    b = block_item("engine", 1, 2)
    c = block_item("engine", 1, 3)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_item_with_params_extends():
    a = ItemName("f", "block")
    b = ItemName("f", "block", (("level", 2),))
    assert b.param("level") == 2
    assert a.params == () and a.param("level") is None


def test_name_service_assigns_stable_ids():
    svc = NameService()
    a = block_item("d", 0, 0)
    b = block_item("d", 0, 1)
    ia = svc.register(a)
    ib = svc.register(b)
    assert ia != ib
    assert svc.register(a) == ia
    assert svc.lookup(ia) == a
    assert len(svc) == 2


def test_name_service_unknown_id():
    with pytest.raises(KeyError):
        NameService().lookup(42)


def test_name_resolver_caches_locally():
    svc = NameService()
    # Spy on the central service: the resolver consults it once per name.
    register, asked = svc.register, []
    svc.register = lambda name: asked.append(name) or register(name)
    res = NameResolver(svc)
    item = block_item("d", 0, 0)
    i1 = res.resolve(item)
    i2 = res.resolve(item)
    assert i1 == i2
    assert asked == [item]
    assert res.reverse(i1) == item


# ------------------------------------------------------------- prefetch


def seq(n=5):
    return [f"b{i}" for i in range(n)]


def test_sequence_order_successor():
    order = SequenceOrder(seq())
    assert order.successor("b0") == "b1"
    assert order.successor("b4") is None
    assert order.successor("zz") is None


def test_sequence_order_extend_keeps_existing():
    order = SequenceOrder(["a", "b"])
    order.extend(["a", "c", "d"])
    assert order.successor("a") == "b"  # original relation wins
    assert order.successor("c") == "d"


def test_no_prefetcher():
    assert NoPrefetcher().observe("x", True) == []


def test_obl_always_suggests_successor():
    p = OBLPrefetcher(SequenceOrder(seq()))
    assert p.observe("b1", was_hit=True) == ["b2"]
    assert p.observe("b1", was_hit=False) == ["b2"]
    assert p.observe("b4", was_hit=False) == []


def test_on_miss_only_suggests_on_miss():
    p = PrefetchOnMissPrefetcher(SequenceOrder(seq()))
    assert p.observe("b1", was_hit=True) == []
    assert p.observe("b1", was_hit=False) == ["b2"]


def test_markov_learns_successor():
    p = MarkovPrefetcher()
    pattern = ["a", "b", "c"] * 4
    suggestions = [p.observe(k, True) for k in pattern]
    # After the first full cycle the predictor knows a->b, b->c, c->a.
    assert suggestions[-1] == ["a"]  # after 'c'
    assert p.observe("a", True) == ["b"]
    assert p.n_contexts == 3


def test_markov_no_suggestion_for_unseen():
    p = MarkovPrefetcher()
    assert p.observe("new", True) == []


def test_markov_prefers_most_frequent():
    p = MarkovPrefetcher()
    for nxt in ["x", "y", "x", "x"]:
        p.observe("a", True)
        p.observe(nxt, True)
    assert p.observe("a", True) == ["x"]


def test_markov_width_two():
    p = MarkovPrefetcher(width=2)
    for nxt in ["x", "y", "x"]:
        p.observe("a", True)
        p.observe(nxt, True)
    out = p.observe("a", True)
    assert out[0] == "x" and set(out) == {"x", "y"}


def test_markov_second_order():
    p = MarkovPrefetcher(order=2)
    stream = ["a", "b", "c", "a", "b", "c", "a", "b"]
    for k in stream:
        p.observe(k, True)
    # Context (a, b) -> c was seen twice in the stream.
    assert p._table[("a", "b")]["c"] == 2
    # Asking after a fresh 'c' (context becomes (b, c)) predicts 'a'.
    assert p.observe("c", True) == ["a"]


def test_markov_reset():
    p = MarkovPrefetcher()
    p.observe("a", True)
    p.observe("b", True)
    p.reset()
    assert p.n_contexts == 0
    assert p.observe("a", True) == []


def test_markov_validation():
    with pytest.raises(ValueError):
        MarkovPrefetcher(order=0)
    with pytest.raises(ValueError):
        MarkovPrefetcher(width=0)


def test_markov_obl_falls_back():
    p = MarkovOBLPrefetcher(SequenceOrder(seq()))
    # Nothing learned yet: OBL supplies the suggestion.
    assert p.observe("b0", True) == ["b1"]
    assert p.fallbacks == 1
    # Teach it a non-sequential relation: b0 -> b3.
    for _ in range(3):
        p.observe("b0", True)
        p.observe("b3", True)
    assert p.observe("b0", True) == ["b3"]


def test_markov_obl_reset():
    p = MarkovOBLPrefetcher(SequenceOrder(seq()))
    p.observe("b0", True)
    p.reset()
    assert p.fallbacks == 0


def test_factory():
    order = SequenceOrder(seq())
    assert isinstance(make_prefetcher("none"), NoPrefetcher)
    assert isinstance(make_prefetcher("obl", order), OBLPrefetcher)
    assert isinstance(make_prefetcher("on-miss", order), PrefetchOnMissPrefetcher)
    assert isinstance(make_prefetcher("markov"), MarkovPrefetcher)
    assert isinstance(make_prefetcher("markov+obl", order), MarkovOBLPrefetcher)
    with pytest.raises(ValueError):
        make_prefetcher("obl")  # missing order
    with pytest.raises(ValueError):
        make_prefetcher("psychic", order)
