"""Unit and property tests for CacheTier and TwoTierCache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dms import CacheTier, TwoTierCache


def tier(cap=100, policy="lru", name="t"):
    return CacheTier(cap, policy, name=name)


def test_capacity_validation():
    with pytest.raises(ValueError):
        CacheTier(0)


def test_put_get_hit_miss_accounting():
    c = tier()
    assert c.get("a") is None
    c.put("a", "payload", 10)
    assert c.get("a") == "payload"
    assert c.stats.hits == 1
    assert c.stats.misses == 1
    assert c.stats.hit_rate == 0.5
    assert c.used_bytes == 10


def test_eviction_when_full():
    c = tier(cap=100)
    c.put("a", "A", 60)
    c.put("b", "B", 60)  # exceeds capacity -> evict a (LRU)
    assert "a" not in c
    assert "b" in c
    assert c.keys() == ["b"]
    assert c.used_bytes == 60


def test_eviction_returns_victims_with_payloads():
    c = tier(cap=100)
    c.put("a", "A", 40)
    c.put("b", "B", 40)
    evicted = c.put("c", "C", 40)
    assert evicted == [("a", "A", 40)]


def test_never_evicts_just_inserted_sole_entry():
    c = tier(cap=100)
    evicted = c.put("big", "B", 90)
    assert evicted == []
    assert "big" in c


def test_oversized_item_not_cached():
    c = tier(cap=100)
    evicted = c.put("huge", "H", 500)
    assert evicted == []
    assert "huge" not in c
    assert c.used_bytes == 0


def test_reinsert_updates_size():
    c = tier(cap=100)
    c.put("a", "A1", 30)
    c.put("a", "A2", 50)
    assert c.used_bytes == 50
    assert c.get("a") == "A2"
    assert len(c) == 1


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        tier().put("a", "A", -1)


def test_clear():
    c = tier()
    c.put("a", "A", 10)
    c.put("b", "B", 10)
    c.clear()
    assert len(c) == 0
    assert c.used_bytes == 0


def test_keys_and_size_of():
    c = tier()
    c.put("a", "A", 10)
    assert c.keys() == ["a"]
    assert c.size_of("a") == 10


# --------------------------------------------------------------- two-tier


def test_two_tier_l1_hit():
    tt = TwoTierCache(tier(100, name="l1"), tier(200, name="l2"))
    tt.put("a", "A", 10)
    payload, where = tt.get("a")
    assert payload == "A"
    assert where == "l1"
    assert tt.holds("a") == "l1"


def test_two_tier_spill_to_l2_and_promote():
    tt = TwoTierCache(tier(100, name="l1"), tier(200, name="l2"))
    tt.put("a", "A", 60)
    tt.put("b", "B", 60)  # spills a to l2
    assert tt.holds("a") == "l2"
    payload, where = tt.get("a")  # promotes back to l1, spilling b
    assert payload == "A"
    assert where == "l2"
    assert tt.holds("a") == "l1"
    assert tt.holds("b") == "l2"


def test_two_tier_miss():
    tt = TwoTierCache(tier(), tier())
    payload, where = tt.get("nope")
    assert payload is None
    assert where == "miss"
    assert tt.holds("nope") is None
    assert "nope" not in tt


def test_two_tier_without_l2_drops_evictions():
    tt = TwoTierCache(tier(100))
    tt.put("a", "A", 60)
    tt.put("b", "B", 60)
    assert tt.holds("a") is None
    _, where = tt.get("a")
    assert where == "miss"


def test_two_tier_clear():
    tt = TwoTierCache(tier(), tier())
    tt.put("a", "A", 10)
    tt.clear()
    assert tt.holds("a") is None


@given(
    ops=st.lists(st.integers(0, 14), min_size=1, max_size=120),
    policy=st.sampled_from(["lru", "lfu", "fbr"]),
)
@settings(max_examples=50, deadline=None)
def test_property_two_tier_capacity_and_consistency(ops, policy):
    """Random access streams never overflow a tier or lose consistency."""
    l1 = CacheTier(50, policy)
    l2 = CacheTier(100, policy)
    tt = TwoTierCache(l1, l2)
    for key in ops:
        payload, where = tt.get(key)
        if payload is None:
            tt.put(key, f"payload-{key}", 17)
        else:
            assert payload == f"payload-{key}"
        assert l1.used_bytes <= 50 + 17  # only just-inserted sole entry may exceed
        assert l1.used_bytes == sum(l1.size_of(k) for k in l1.keys())
        assert l2.used_bytes == sum(l2.size_of(k) for k in l2.keys())
        # An item never sits in both tiers at once.
        overlap = set(l1.keys()) & set(l2.keys())
        assert not overlap


# ------------------------------------------- exclude-fallback regression
def test_evict_down_exclude_honors_policy_order():
    """When the just-inserted key is the policy's victim, the *policy's*
    next-best key must go — not the first key in insertion order."""
    c = tier(cap=100, policy="lfu")
    c.put("a", "A", 40)
    c.put("b", "B", 40)
    for _ in range(2):
        c.get("a")  # a: count 3
    c.get("b")  # b: count 2
    # "c" enters at count 1 -> it is the LFU victim, but it is excluded;
    # the next-best is "b" (count 2 < 3), not insertion-ordered "a".
    evicted = c.put("c", "C", 40)
    assert [k for k, _p, _n in evicted] == ["b"]
    assert "a" in c and "c" in c and "b" not in c


def test_evict_down_exclude_restores_policy_state():
    """The temporary remove/re-add of the excluded key must leave the
    policy consistent: later evictions still honor frequency order."""
    c = tier(cap=100, policy="lfu")
    c.put("a", "A", 40)
    c.put("b", "B", 40)
    c.get("a")
    c.get("a")
    c.get("b")
    c.put("c", "C", 40)  # evicts b via the exclude fallback
    c.get("c")  # c: count 2 (fresh count survived the re-add)
    evicted = c.put("d", "D", 40)  # d excluded -> next-best is c? no: a=3, c=2, d=1
    assert [k for k, _p, _n in evicted] == ["c"]
    assert "a" in c and "d" in c
