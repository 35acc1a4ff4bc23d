"""Bucketed LFU/FBR must match the reference scan implementations exactly.

Victim identity decides cache placement and therefore every simulated
timestamp downstream (golden traces, chaos fingerprints), so the O(1)
bucketed policies are held to *identical* victim sequences against the
straight-from-the-definition scans over randomized access traces —
including interleaved evictions, removals of arbitrary keys, FBR
section-boundary churn at small sizes, and count rescaling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dms.policies import FBRPolicy, LFUPolicy

from .scan_policies import ScanFBRPolicy, ScanLFUPolicy

OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "access", "evict", "remove"]),
        st.integers(0, 11),
    ),
    max_size=200,
)


def drive(fast, ref, ops):
    """Apply one op trace to both policies, asserting lockstep victims."""
    tracked = []
    for op, key in ops:
        if op == "insert" and key not in tracked:
            fast.on_insert(key)
            ref.on_insert(key)
            tracked.append(key)
        elif op == "access" and key in tracked:
            fast.on_access(key)
            ref.on_access(key)
        elif op == "evict" and tracked:
            v_fast = fast.victim()
            v_ref = ref.victim()
            assert v_fast == v_ref
            fast.remove(v_fast)
            ref.remove(v_ref)
            tracked.remove(v_fast)
        elif op == "remove" and tracked:
            victim = tracked[key % len(tracked)]
            fast.remove(victim)
            ref.remove(victim)
            tracked.remove(victim)
        assert len(fast) == len(ref) == len(tracked)
        if tracked:
            # Non-destructive victim agreement after *every* op, not
            # just at evictions, so boundary bookkeeping can't drift
            # silently between evictions.
            assert fast.victim() == ref.victim()
    if hasattr(fast, "_counts"):
        assert fast._counts == ref._counts


@given(ops=OPS)
@settings(max_examples=150, deadline=None)
def test_lfu_matches_scan(ops):
    drive(LFUPolicy(), ScanLFUPolicy(), ops)


@given(
    ops=OPS,
    new_fraction=st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7]),
    old_fraction=st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]),
    a_max=st.sampled_from([1.0, 3.0, 10.0]),
)
@settings(max_examples=150, deadline=None)
def test_fbr_matches_scan(ops, new_fraction, old_fraction, a_max):
    if new_fraction + old_fraction > 1.0:
        old_fraction = 1.0 - new_fraction
        if old_fraction <= 0.0:
            old_fraction = 0.1
            new_fraction = 0.5
    fast = FBRPolicy(new_fraction, old_fraction, a_max)
    ref = ScanFBRPolicy(new_fraction, old_fraction, a_max)
    drive(fast, ref, ops)


def test_fbr_rescale_equivalence_long_hot_key():
    """Sustained hits on one old-section key force repeated rescales."""
    fast = FBRPolicy(new_fraction=0.25, old_fraction=0.5, a_max=2.0)
    ref = ScanFBRPolicy(new_fraction=0.25, old_fraction=0.5, a_max=2.0)
    for policy in (fast, ref):
        for k in range(6):
            policy.on_insert(k)
    for _ in range(40):
        for policy in (fast, ref):
            policy.on_access(0)  # 0 keeps returning to the old boundary
        assert fast.victim() == ref.victim()
        assert fast._counts == ref._counts


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fbr_tiny_population_sections_overlap(n):
    """Small n makes the new and old sections overlap; must not diverge."""
    fast = FBRPolicy()
    ref = ScanFBRPolicy()
    for policy in (fast, ref):
        for k in range(n):
            policy.on_insert(k)
    for k in list(range(n)) * 3:
        fast.on_access(k)
        ref.on_access(k)
        assert fast.victim() == ref.victim()


def test_bucketed_victim_does_no_full_scan():
    """victim() must not touch every tracked key (O(1) amortized).

    Counts accesses via instrumented keys: after warmup, repeated
    victim() calls on the LFU must hash far fewer keys than the
    population (the scan implementation touches all of them).
    """

    class CountingKey:
        hashes = 0

        def __init__(self, v):
            self.v = v

        def __hash__(self):
            CountingKey.hashes += 1
            return hash(self.v)

        def __eq__(self, other):
            return isinstance(other, CountingKey) and self.v == other.v

    p = LFUPolicy()
    keys = [CountingKey(i) for i in range(500)]
    for k in keys:
        p.on_insert(k)
    for k in keys[1:]:
        p.on_access(k)
    CountingKey.hashes = 0
    for _ in range(100):
        assert p.victim() == keys[0]
    # The scan hashes every key per call (>= 50_000 here); the bucketed
    # victim touches only the minimum bucket head.
    assert CountingKey.hashes <= 1000
