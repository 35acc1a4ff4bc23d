"""Tests for loading strategies and the adaptive selector."""

import pytest

from repro.dms import (
    AdaptiveSelector,
    CollectiveLoad,
    FileServerLoad,
    LoadContext,
    LocalDiskLoad,
    NodeTransferLoad,
)

MB = 1024 * 1024


def ctx(**overrides):
    defaults = dict(
        key="item",
        nbytes=8 * MB,
        requester=1,
        holders=frozenset(),
        fileserver_queue=0,
        fabric_queue=0,
        concurrent_requesters=1,
        fileserver_bandwidth=60.0 * MB,
        fileserver_latency=5e-3,
        fabric_bandwidth=800.0 * MB,
        fabric_latency=30e-6,
    )
    defaults.update(overrides)
    return LoadContext(**defaults)


def test_fileserver_always_available():
    assert FileServerLoad().available(ctx())


def test_node_transfer_needs_another_holder():
    s = NodeTransferLoad()
    assert not s.available(ctx(holders=frozenset()))
    assert not s.available(ctx(holders=frozenset({1})))  # only ourselves
    assert s.available(ctx(holders=frozenset({1, 3})))


def test_collective_needs_concurrency():
    s = CollectiveLoad()
    assert not s.available(ctx(concurrent_requesters=1))
    assert s.available(ctx(concurrent_requesters=4))


def test_fabric_beats_fileserver_when_holder_exists():
    c = ctx(holders=frozenset({2}))
    assert NodeTransferLoad().fitness(c) > FileServerLoad().fitness(c)


def test_fileserver_fitness_degrades_with_queue():
    fast = FileServerLoad().fitness(ctx(fileserver_queue=0))
    slow = FileServerLoad().fitness(ctx(fileserver_queue=8))
    assert slow < fast


def test_collective_beats_direct_at_stampede():
    """Many simultaneous requesters of one item make collective I/O win."""
    stampede = ctx(concurrent_requesters=12, fileserver_queue=12)
    assert CollectiveLoad().fitness(stampede) > FileServerLoad().fitness(stampede)


def test_collective_loses_for_single_requests():
    """Coordination overhead makes collective unattractive normally —
    the paper's conclusion about its limited use in Viracocha."""
    light = ctx(concurrent_requesters=2, nbytes=256 * 1024)
    assert CollectiveLoad().fitness(light) < FileServerLoad().fitness(light)


def test_default_context_pressure_is_exactly_the_queue_depth():
    """With no live-utilization fields (0 busy across 1 stream) the
    pressure term reduces to the plain queue depth, and the fitness
    scores are bit-identical to the pre-contention model."""
    c = ctx(fileserver_queue=5, fabric_queue=3, holders=frozenset({2}))
    assert c.fileserver_pressure == 5.0
    assert c.fabric_pressure == 3.0
    # The original formulae, term for term.
    eff = c.fileserver_bandwidth / (1.0 + c.fileserver_queue)
    t = c.fileserver_latency + c.nbytes / max(eff, 1e-9)
    assert FileServerLoad().fitness(c) == c.nbytes / max(t, 1e-12)
    eff = c.fabric_bandwidth / (1.0 + c.fabric_queue)
    t = c.fabric_latency + c.nbytes / max(eff, 1e-9)
    assert NodeTransferLoad().fitness(c) == c.nbytes / max(t, 1e-12)


def test_contention_aware_fitness_sees_busy_streams():
    idle = ctx(fileserver_busy=0, fileserver_streams=2)
    busy = ctx(fileserver_busy=2, fileserver_streams=2)
    assert FileServerLoad().fitness(busy) < FileServerLoad().fitness(idle)
    # More streams soak up the same queue.
    narrow = ctx(fileserver_queue=4, fileserver_streams=1)
    wide = ctx(fileserver_queue=4, fileserver_streams=4)
    assert FileServerLoad().fitness(wide) > FileServerLoad().fitness(narrow)


def test_fabric_pressure_steers_away_from_node_transfer():
    """A saturated fabric makes the fileserver competitive again even
    when a peer holds the item."""
    calm = ctx(holders=frozenset({2}))
    assert AdaptiveSelector().select(calm).name == "node-transfer"
    jammed = ctx(holders=frozenset({2}), fabric_busy=64, fabric_streams=4)
    assert AdaptiveSelector().select(jammed).name == "fileserver"


def test_direct_disk_requires_replica():
    s = LocalDiskLoad()
    assert not s.available(ctx())
    assert not s.available(ctx(local_replica=True))  # no disk modeled
    assert not s.available(ctx(local_disk_bandwidth=40.0 * MB))
    assert s.available(ctx(local_replica=True, local_disk_bandwidth=40.0 * MB))


def test_direct_disk_wins_when_fileserver_congested():
    """The private scratch disk beats the shared 60 MB/s fileserver
    once a queue forms there, and loses to it when the link is idle."""
    replica = dict(
        local_replica=True,
        local_disk_bandwidth=40.0 * MB,
        local_disk_latency=8e-3,
    )
    sel = AdaptiveSelector()
    assert sel.select(ctx(**replica)).name == "fileserver"
    assert sel.select(ctx(**replica, fileserver_queue=8)).name == "direct-disk"


def test_selector_default_strategy_set_is_stable():
    """FileServerLoad must stay first (adaptive=False pins it) and the
    decisions dict pre-seeds every strategy including direct-disk."""
    sel = AdaptiveSelector()
    assert [s.name for s in sel.strategies] == [
        "fileserver", "node-transfer", "collective", "direct-disk",
    ]
    assert sel.decisions == {
        "fileserver": 0, "node-transfer": 0, "collective": 0, "direct-disk": 0,
    }


def test_selector_picks_max_fitness():
    sel = AdaptiveSelector()
    chosen = sel.select(ctx(holders=frozenset({2})))
    assert chosen.name == "node-transfer"
    chosen = sel.select(ctx())
    assert chosen.name == "fileserver"
    assert sel.decisions["node-transfer"] == 1
    assert sel.decisions["fileserver"] == 1


def test_selector_non_adaptive_pins_first():
    sel = AdaptiveSelector(adaptive=False)
    chosen = sel.select(ctx(holders=frozenset({2})))
    assert chosen.name == "fileserver"


def test_selector_requires_strategies():
    with pytest.raises(ValueError):
        AdaptiveSelector(strategies=[])


def test_selector_no_available_strategy_raises():
    class Never(FileServerLoad):
        name = "never"

        def available(self, c):
            return False

    sel = AdaptiveSelector(strategies=[Never()])
    with pytest.raises(LookupError):
        sel.select(ctx())
