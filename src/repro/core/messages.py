"""Message types exchanged between client, scheduler and workers.

Every message knows its wire size so channels can charge transfer time.
Header overhead is deliberately modeled: streamed results are many small
messages, and their per-message cost is precisely the streaming overhead
the paper discusses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "HEADER_BYTES",
    "CommandRequest",
    "WorkAssignment",
    "ResultPacket",
    "WorkerDone",
    "CommandComplete",
]

#: fixed framing overhead per message (type tag, ids, lengths).
HEADER_BYTES = 128

_request_counter = itertools.count(1)


def next_request_id() -> int:
    return next(_request_counter)


@dataclass(frozen=True)
class CommandRequest:
    """Client → scheduler: start a post-processing command."""

    request_id: int
    command: str
    params: dict[str, Any] = field(default_factory=dict)
    group_size: int | None = None  #: None = whole worker pool
    tenant: str = "default"  #: originating tenant (serving layer)

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + 64 * max(len(self.params), 1)


@dataclass(frozen=True)
class Shutdown:
    """Client → scheduler: stop the serve loop."""

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES


@dataclass(frozen=True)
class WorkAssignment:
    """Scheduler → worker: the worker's share of a command."""

    request_id: int
    command: str
    params: dict[str, Any]
    worker_index: int  #: index within the work group
    group_size: int
    assignment: Any  #: command-specific (block list, seed list, ...)

    @property
    def nbytes(self) -> int:
        try:
            n_items = len(self.assignment)
        except TypeError:
            n_items = 1
        return HEADER_BYTES + 16 * max(n_items, 1)


@dataclass(frozen=True)
class ResultPacket:
    """A (partial or final) result travelling to the client.

    ``payload`` carries the real geometry; ``nbytes`` is the *modeled*
    wire size used for transfer-time charging.
    """

    request_id: int
    worker_index: int
    sequence: int
    payload: Any
    nbytes: int
    final: bool = False
    #: payload class: "geometry" for surface fragments, "approximation"
    #: for the zero-byte marker a progressive worker sends once the
    #: coarsest level of *all* its blocks is out (the client's TTFA
    #: measurement point).
    kind: str = "geometry"
    #: canonical work unit the packet belongs to: the share index under
    #: a static schedule (equal to ``worker_index``), the task index
    #: under a dynamic one.  The client dedups on (request, unit,
    #: sequence).
    unit: int = 0

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + self.nbytes


@dataclass(frozen=True)
class ProgressUpdate:
    """Worker → client: fraction of this worker's share completed.

    The paper's §9 names exactly this: "methods have to be developed
    supporting the user to realize that a computation is still in
    progress.  A straightforward approach could be a kind of progress
    bar visible in the virtual environment."
    """

    request_id: int
    worker_index: int
    completed: int
    total: int

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(frozen=True)
class WorkerDone:
    """Worker → master/scheduler: my share is finished."""

    request_id: int
    worker_index: int
    partial_nbytes: int  #: modeled size of the buffered partial result
    payload: Any = None

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + self.partial_nbytes


@dataclass(frozen=True)
class CommandComplete:
    """Scheduler → client bookkeeping record (end of command)."""

    request_id: int

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES
