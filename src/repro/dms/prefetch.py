"""Prefetchers: OBL, prefetch-on-miss, and the Markov(+OBL) predictor.

"The system prefetcher uses sequential prefetching with
one-block-lookahead (OBL, loading the successor block) or
prefetch-on-miss (prefetching of next block only when a miss occurs) as
well as a markov prefetcher that learns relationships between blocks
over time."  The variant used in the paper falls back to OBL whenever
the Markov table has no successor information for the current block
(§4.2).

Prefetchers observe the access stream via :meth:`observe` and emit
predicted keys; actually loading them is the proxy's business.  The
"next block" relation for sequential prefetchers is an explicit
ordering (file-storage order by default), since "neighboring relations
in 3-dimensional CFD data sets are not obvious at all times".
"""

from __future__ import annotations

from typing import Hashable, Sequence

__all__ = [
    "Prefetcher",
    "NoPrefetcher",
    "OBLPrefetcher",
    "PrefetchOnMissPrefetcher",
    "MarkovPrefetcher",
    "MarkovOBLPrefetcher",
    "SequenceOrder",
    "TransitionTable",
    "make_prefetcher",
]


class TransitionTable:
    """Array-backed successor counts for one Markov context.

    Replaces the previous ``Counter`` per context: successor counts
    live in a dense ``list`` indexed through an interning dict, and the
    running argmax is cached so the ``width == 1`` prediction (the
    common configuration) is a single list index instead of a
    ``most_common`` sort per observation.

    Prediction order is identical to ``Counter.most_common``: highest
    count first, ties broken by first-observation order.  For the
    cached argmax this follows from counts only ever increasing — the
    winner is replaced exactly when a successor strictly exceeds it or
    ties it with an earlier insertion index.  Read access mirrors the
    Counter mapping API (``table[key]``, ``.get``) for callers and
    tests that inspect learned counts.
    """

    __slots__ = ("keys", "counts", "pos", "best")

    def __init__(self) -> None:
        self.keys: list[Hashable] = []
        self.counts: list[int] = []
        self.pos: dict[Hashable, int] = {}
        self.best = -1

    def increment(self, key: Hashable) -> None:
        i = self.pos.get(key)
        if i is None:
            i = self.pos[key] = len(self.keys)
            self.keys.append(key)
            self.counts.append(0)
        counts = self.counts
        count = counts[i] + 1
        counts[i] = count
        best = self.best
        if best < 0 or count > counts[best] or (count == counts[best] and i < best):
            self.best = i

    def top(self, width: int) -> list:
        if self.best < 0:
            return []
        if width == 1:
            return [self.keys[self.best]]
        order = sorted(
            range(len(self.counts)), key=self.counts.__getitem__, reverse=True
        )
        return [self.keys[i] for i in order[:width]]

    # -- Counter-compatible reads -------------------------------------
    def __getitem__(self, key: Hashable) -> int:
        i = self.pos.get(key)
        return self.counts[i] if i is not None else 0

    def get(self, key: Hashable, default=None):
        i = self.pos.get(key)
        return self.counts[i] if i is not None else default

    def __len__(self) -> int:
        return len(self.keys)

    def __bool__(self) -> bool:
        return bool(self.keys)

    def __iter__(self):
        return iter(self.keys)

    def items(self):
        return zip(self.keys, self.counts)


class SequenceOrder:
    """An explicit "next block" relation over item keys."""

    def __init__(self, sequence: Sequence[Hashable]):
        self._next: dict[Hashable, Hashable] = {}
        for a, b in zip(sequence, list(sequence)[1:]):
            self._next[a] = b

    def successor(self, key: Hashable) -> Hashable | None:
        return self._next.get(key)

    def extend(self, sequence: Sequence[Hashable]) -> None:
        for a, b in zip(sequence, list(sequence)[1:]):
            self._next.setdefault(a, b)


class Prefetcher:
    """Base: observe accesses, suggest keys to prefetch."""

    name = "base"

    def observe(self, key: Hashable, was_hit: bool) -> list[Hashable]:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget learned state (a new investigation session)."""

    def describe(self) -> dict[str, object]:
        """Observability summary (name + learned-state size, if any)."""
        return {"name": self.name}


class NoPrefetcher(Prefetcher):
    """Prefetching disabled."""

    name = "none"

    def observe(self, key: Hashable, was_hit: bool) -> list[Hashable]:
        return []


class OBLPrefetcher(Prefetcher):
    """One-block-lookahead: always suggest the successor block."""

    name = "obl"

    def __init__(self, order: SequenceOrder):
        self.order = order

    def observe(self, key: Hashable, was_hit: bool) -> list[Hashable]:
        nxt = self.order.successor(key)
        return [nxt] if nxt is not None else []


class PrefetchOnMissPrefetcher(Prefetcher):
    """Suggest the successor only when the access was a miss."""

    name = "on-miss"

    def __init__(self, order: SequenceOrder):
        self.order = order

    def observe(self, key: Hashable, was_hit: bool) -> list[Hashable]:
        if was_hit:
            return []
        nxt = self.order.successor(key)
        return [nxt] if nxt is not None else []


class MarkovPrefetcher(Prefetcher):
    """First-order Markov predictor over the observed request stream.

    Builds a probability graph of successor relations; suggests the
    ``width`` most likely successors of the current key.  Higher-order
    variants condition on the last ``order`` keys.
    """

    name = "markov"

    def __init__(self, order: int = 1, width: int = 1):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.order = order
        self.width = width
        self._table: dict[tuple, TransitionTable] = {}
        self._history: list[Hashable] = []

    def observe(self, key: Hashable, was_hit: bool) -> list[Hashable]:
        table = self._table
        history = self._history
        if len(history) >= self.order:
            context = tuple(history[-self.order :])
            transitions = table.get(context)
            if transitions is None:
                transitions = table[context] = TransitionTable()
            transitions.increment(key)
        history.append(key)
        if len(history) > self.order:
            del history[: len(history) - self.order]
        context = tuple(history[-self.order :])
        transitions = table.get(context)
        if not transitions:
            return []
        return transitions.top(self.width)

    def reset(self) -> None:
        self._table.clear()
        self._history.clear()

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "order": self.order, "width": self.width,
                "n_contexts": self.n_contexts}

    @property
    def n_contexts(self) -> int:
        return len(self._table)


class MarkovOBLPrefetcher(Prefetcher):
    """Markov predictor with OBL fallback (the paper's variant).

    "Whenever the markov prefetcher is incapable to provide a prefetch
    suggestion because of missing successor information about the
    current block, the 'next' block is suggested by OBL."
    """

    name = "markov+obl"

    def __init__(self, order: SequenceOrder, markov_order: int = 1, width: int = 1):
        self.markov = MarkovPrefetcher(order=markov_order, width=width)
        self.obl = OBLPrefetcher(order)
        self.fallbacks = 0  #: how often OBL had to stand in

    def observe(self, key: Hashable, was_hit: bool) -> list[Hashable]:
        suggestions = self.markov.observe(key, was_hit)
        if suggestions:
            return suggestions
        self.fallbacks += 1
        return self.obl.observe(key, was_hit)

    def reset(self) -> None:
        self.markov.reset()
        self.fallbacks = 0

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "fallbacks": self.fallbacks,
                "n_contexts": self.markov.n_contexts}


class BlockMarkovPrefetcher(Prefetcher):
    """Markov prediction on *spatial* block ids, lifted back to items.

    Particle traces request the same block at two adjacent time levels
    and then move to a neighboring block; the recurring structure is the
    block-to-block trajectory, not the (time, block) pair — a pair is
    requested only once per trace, so an item-level Markov table could
    never predict a compulsory miss.  This prefetcher learns
    ``block -> next block`` transitions (collapsing the duplicate
    adjacent-time-level requests) and suggests the predicted block at
    both bracketing time levels.  OBL over the block-id file order is
    the fallback while a transition is still unknown (§4.2).

    ``table`` may be shared between the proxies of a work group: the
    paper's "statistical unit of the DMS" that feeds the system
    prefetcher is a central component, so every worker's observations
    train one probability graph.  The per-proxy traversal state
    (``_last_block``) stays private.
    """

    name = "block-markov"

    def __init__(
        self,
        dataset: str,
        n_timesteps: int,
        block_order: Sequence[Hashable],
        width: int = 1,
        time_offset: int = 0,
        table: dict | None = None,
    ):
        from .items import block_item

        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self._block_item = block_item
        self.dataset = dataset
        self.n_timesteps = n_timesteps
        self.time_offset = time_offset
        self.width = width
        #: ``block -> TransitionTable``; may be shared between proxies.
        self.table: dict = table if table is not None else {}
        self.obl = OBLPrefetcher(SequenceOrder(block_order))
        self.fallbacks = 0
        self._last_block: Hashable | None = None

    def _predict(self, block: Hashable) -> list[Hashable]:
        transitions = self.table.get(block)
        if not transitions:
            return []
        return transitions.top(self.width)

    def observe(self, key, was_hit: bool) -> list:
        block = key.param("block")
        time_index = key.param("time")
        if block is None or time_index is None:
            return []
        if block != self._last_block:
            if self._last_block is not None:
                transitions = self.table.get(self._last_block)
                if transitions is None:
                    transitions = self.table[self._last_block] = TransitionTable()
                transitions.increment(block)
            self._last_block = block
        t_hi = self.time_offset + self.n_timesteps - 1
        predicted: list = []
        # Temporal lookahead first: a trace that touches (t, b) will
        # bracket into (t+1, b) next and (t+2, b) soon after — the
        # "uncached next time levels" pattern of time-varying data (§7.2).
        for dt in (1, 2):
            if time_index + dt <= t_hi:
                predicted.append(
                    self._block_item(self.dataset, time_index + dt, block)
                )
        # Then the learned spatial transition, with OBL as fallback.
        blocks = self._predict(block)
        if not blocks:
            self.fallbacks += 1
            blocks = self.obl.observe(block, was_hit)
        for b in blocks:
            for t in (time_index, min(time_index + 1, t_hi)):
                item = self._block_item(self.dataset, t, b)
                if item != key and item not in predicted:
                    predicted.append(item)
        return predicted

    @property
    def n_contexts(self) -> int:
        return len(self.table)

    def reset(self) -> None:
        self.table.clear()
        self.fallbacks = 0
        self._last_block = None

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "fallbacks": self.fallbacks,
                "n_contexts": self.n_contexts, "width": self.width}


def make_prefetcher(
    name: str,
    order: SequenceOrder | None = None,
    **kwargs,
) -> Prefetcher:
    """Factory: 'none', 'obl', 'on-miss', 'markov', 'markov+obl'."""
    name = name.lower()
    if name == "none":
        return NoPrefetcher()
    if name == "markov":
        return MarkovPrefetcher(**kwargs)
    if order is None:
        raise ValueError(f"prefetcher {name!r} needs a SequenceOrder")
    if name == "obl":
        return OBLPrefetcher(order)
    if name == "on-miss":
        return PrefetchOnMissPrefetcher(order)
    if name == "markov+obl":
        return MarkovOBLPrefetcher(order, **kwargs)
    raise ValueError(f"unknown prefetcher {name!r}")
