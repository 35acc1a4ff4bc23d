"""Data items and the naming service.

The DMS "handles raw data without any information about its type or
structure"; its minimal unit is the *data item*.  An item "is fully
named by a source file, a data type and format as well as an optional
parameter list" — simply using file names would be inadequate because
distinct items may derive from the same file (paper §4).

:class:`ItemName` is that full name; the central :class:`NameService`
assigns unambiguous integer identifiers, and each proxy carries a
:class:`NameResolver` that translates names to identifiers and back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ItemName", "NameService", "NameResolver", "block_item", "pyramid_item"]


@dataclass(frozen=True, order=True)
class ItemName:
    """Fully qualified name of a data item."""

    source: str  #: source file / dataset the item derives from
    kind: str  #: data type and format, e.g. "block", "block-coarse"
    params: tuple[tuple[str, object], ...] = ()  #: optional parameter list

    def __str__(self) -> str:
        if not self.params:
            return f"{self.source}:{self.kind}"
        ps = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.source}:{self.kind}[{ps}]"

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

def block_item(dataset: str, time_index: int, block_id: int, kind: str = "block") -> ItemName:
    """The standard item name for one block of one time level."""
    return ItemName(
        source=dataset,
        kind=kind,
        params=(("block", block_id), ("time", time_index)),
    )


def pyramid_item(
    dataset: str,
    time_index: int,
    block_id: int,
    min_dim: int,
    max_levels: int,
) -> ItemName:
    """Item name for a block's derived multi-resolution pyramid.

    Keyed by the pyramid shape parameters only — the pyramid coarsens
    every field, so commands with different scalars or isovalues share
    one cached item.
    """
    return ItemName(
        source=dataset,
        kind="block-pyramid",
        params=(
            ("block", block_id),
            ("levels", max_levels),
            ("min_dim", min_dim),
            ("time", time_index),
        ),
    )


class NameService:
    """Central authority mapping item names to unambiguous identifiers."""

    def __init__(self) -> None:
        self._by_name: dict[ItemName, int] = {}
        self._by_id: dict[int, ItemName] = {}
        self._next = 0

    def __len__(self) -> int:
        return len(self._by_name)

    def register(self, name: ItemName) -> int:
        """Return the identifier for ``name``, assigning one if new."""
        ident = self._by_name.get(name)
        if ident is None:
            ident = self._next
            self._next += 1
            self._by_name[name] = ident
            self._by_id[ident] = name
        return ident

    def lookup(self, ident: int) -> ItemName:
        try:
            return self._by_id[ident]
        except KeyError:
            raise KeyError(f"unknown item identifier {ident}") from None

class NameResolver:
    """Proxy-side cache of name ↔ identifier translations."""

    def __init__(self, service: NameService):
        self._service = service
        self._local: dict[ItemName, int] = {}

    def resolve(self, name: ItemName) -> int:
        ident = self._local.get(name)
        if ident is None:
            ident = self._service.register(name)
            self._local[name] = ident
        return ident

    def reverse(self, ident: int) -> ItemName:
        return self._service.lookup(ident)
