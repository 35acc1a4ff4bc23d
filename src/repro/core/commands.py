"""Layer 3: the command protocol.

"Actually applied computing algorithms are merely implemented on the
uppermost layer.  This design allows the reuse of the Viracocha
framework for purposes different from CFD post-processing by simply
exchanging this topmost layer." (§3)

A command is a generator over *ops*; the worker (layer 2) interprets
them:

* ``Load(item)``     → fetch a block (through the DMS or directly);
  the op evaluates to the :class:`~repro.grids.block.StructuredBlock`.
* ``Compute(cost, fn)`` → run ``fn`` now (real numerics) and charge
  ``cost`` modeled work units; evaluates to ``fn()``.
* ``Emit(payload, nbytes, kind)`` → hand a partial result to the
  runtime: streamed straight to the client, or buffered for the final
  collective package, depending on the command's ``streaming`` flag.
* ``Prefetch(item)`` → non-blocking code-prefetch hint (§4.2).

Because the ops are plain data, the same command code runs under any
runtime and is trivially unit-testable by driving the generator by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Sequence

from ..dms.items import ItemName
from ..grids.block import BlockHandle
from .costs import CostModel

__all__ = [
    "Load",
    "Compute",
    "ComputeCached",
    "Emit",
    "Prefetch",
    "CommandContext",
    "Command",
    "CommandRegistry",
    "split_round_robin",
    "plan_block_assignments",
    "plan_block_tasks",
    "lpt_order",
    "SCHEDULES",
    "is_dynamic",
]


@dataclass(frozen=True)
class Load:
    item: ItemName


@dataclass(frozen=True)
class Compute:
    cost: float
    fn: Callable[[], Any] | None = None


@dataclass(frozen=True)
class ComputeCached:
    """Derive-once compute: the result is a cacheable data item (§4).

    On a DMS cache hit the op evaluates to the cached payload without
    running ``fn`` or charging ``cost`` (an L2 hit pays the local read
    of ``nbytes``); on a miss ``fn`` runs, ``cost`` is charged, and the
    payload is admitted to the cache under ``item`` so later commands —
    or later refinement passes of the same command — skip the work.

    ``fn=None`` turns the op into a *probe*: a hit evaluates to the
    cached payload as usual, a miss evaluates to ``None`` with nothing
    charged or recorded.  Commands use probes to skip upstream work a
    hit makes redundant — e.g. the progressive command only ``Load``\\ s
    the full-resolution block when its pyramid is not already cached.
    """

    item: ItemName
    cost: float
    fn: Callable[[], Any] | None
    nbytes: int = 0


@dataclass(frozen=True)
class Emit:
    payload: Any
    nbytes: int
    kind: str = "geometry"


@dataclass(frozen=True)
class Prefetch:
    item: ItemName


@dataclass
class CommandContext:
    """Everything a command needs to plan and run.

    ``handles_by_time[i]`` lists the block handles of absolute time
    level ``time_offset + i``; ``times`` are the matching physical
    times.  Commands derive item names, cost estimates and orderings
    from these without touching payload data.
    """

    dataset: str
    handles_by_time: Sequence[Sequence[BlockHandle]]
    params: dict[str, Any]
    costs: CostModel
    time_offset: int = 0
    times: Sequence[float] = ()
    #: exact finite ``(min, max)`` of stored scalars per block,
    #: ``{scalar: {time_index: {block_id: (lo, hi)}}}``.  Only the real
    #: path (:mod:`repro.parallel`) fills it; scheduler-built contexts
    #: leave it ``None``, so simulated op streams never cull.
    block_ranges: Mapping[str, Mapping[int, Mapping[int, tuple[float, float]]]] | None = None
    #: blocks :meth:`cull` skipped so far in this process; interpreters
    #: read the delta over a share.
    n_culled: int = 0
    _handle_index: dict[tuple[int, int], BlockHandle] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict[str, Any]:
        # The lookup index is rebuilt on first use; not worth the pipe.
        return {**self.__dict__, "_handle_index": None}

    @property
    def n_timesteps(self) -> int:
        return len(self.handles_by_time)

    @property
    def time_indices(self) -> range:
        """Absolute time indices covered by this command."""
        return range(self.time_offset, self.time_offset + len(self.handles_by_time))

    def handle(self, time_index: int, block_id: int) -> BlockHandle:
        """Handle lookup by *absolute* time index."""
        rel = time_index - self.time_offset
        if not 0 <= rel < len(self.handles_by_time):
            raise KeyError(f"time index {time_index} outside command range")
        index = self._handle_index
        if index is None:
            index = self._handle_index = {}
            for r, handles in enumerate(self.handles_by_time):
                for h in handles:
                    index.setdefault((r, h.block_id), h)
        try:
            return index[rel, block_id]
        except KeyError:
            raise KeyError(
                f"no handle for block {block_id} at t={time_index}"
            ) from None

    def may_contain(
        self, time_index: int, block_id: int, scalar: str, value: float
    ) -> bool:
        """Whether the block's stored ``scalar`` range can reach ``value``.

        ``True`` whenever nothing is known (no table, unknown block, a
        range that was not finite); a ``False`` is exact — no cell of
        the block has a corner interval enclosing ``value`` — so a
        threshold command may skip the block without changing a byte.
        """
        if self.block_ranges is None:
            return True
        span = self.block_ranges.get(scalar, {}).get(time_index, {}).get(block_id)
        return span is None or span[0] <= value <= span[1]

    def cull(self, time_index: int, block_id: int, scalar: str, value: float) -> bool:
        """Whether to skip the block (``not may_contain``), counting the
        skip: what a command's ``run`` asks before ``yield Load``."""
        if self.may_contain(time_index, block_id, scalar, value):
            return False
        self.n_culled += 1
        return True


CommandGen = Generator["Load | Compute | ComputeCached | Emit | Prefetch", Any, None]


class Command:
    """Base class for post-processing commands."""

    #: registry name, e.g. "iso-dataman".
    name: str = "command"
    #: whether partial results stream directly to the client (§5).
    streaming: bool = False
    #: whether block loads go through the DMS (§4) or hit the
    #: fileserver directly every time (the paper's "Simple*" baselines).
    use_dms: bool = True

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        """Split the work into one assignment per worker."""
        raise NotImplementedError

    def run(self, ctx: CommandContext, assignment: Any, worker_index: int) -> CommandGen:
        """The worker-side op generator for one assignment."""
        raise NotImplementedError

    def prefetcher_spec(self, ctx: CommandContext) -> str:
        """System prefetcher to install for this command ('none', 'obl',
        'on-miss', 'markov+obl').  Commands may honor a ``prefetch``
        param override (the ablation figures switch prefetching off)."""
        return "none"

    def threshold_scalar(self, ctx: CommandContext) -> str | None:
        """The stored scalar whose per-block range decides, through
        :meth:`CommandContext.may_contain`, whether a block can
        contribute; ``None`` for commands that never skip blocks."""
        return None

    def item_sequence_for(self, ctx: CommandContext, assignment: Any) -> list[ItemName] | None:
        """The block-item order this worker will process (drives the
        sequential prefetchers' "next block" relation).  ``None`` means
        no meaningful sequential order exists."""
        return None

    def plan_tasks(self, ctx: CommandContext) -> list[Any]:
        """Split the work into fine-grained tasks for dynamic scheduling.

        Each task is a minimal assignment (drivable by :meth:`run`
        unchanged) in *canonical* order: the order a single-worker
        :meth:`plan` would visit the same work.  Dynamic schedulers may
        execute tasks in any order but must reassemble payloads in this
        order, which keeps merged output byte-identical to a serial run.

        The default is one coarse task — the whole single-worker share —
        so commands without a finer split (e.g. the progressive command,
        whose refinement loop is stateful across blocks) still run under
        ``schedule="dynamic"``, just without stealing.
        """
        return self.plan(ctx, 1)

    def task_cost(self, ctx: CommandContext, task: Any) -> float:
        """Estimated relative cost of one :meth:`plan_tasks` task.

        Drives LPT (longest-processing-time-first) initial ordering;
        only relative magnitudes matter.  The default recognizes
        ``(time_index, block_id)`` block work and sums modeled cell
        counts; anything else is uniform.
        """
        total = 0.0
        recognized = False
        try:
            entries = list(task)
        except TypeError:
            return 1.0
        for entry in entries:
            try:
                t, bid = entry
                total += float(ctx.handle(int(t), int(bid)).modeled_cells)
                recognized = True
            except (TypeError, ValueError, KeyError):
                continue
        return total if recognized else 1.0

    def merge(self, payload_lists: Sequence[Sequence[Any]]) -> Any:
        """Combine the workers' buffered partials into the final result.

        The default merges triangle meshes; commands with other payload
        types (pathlines) override this.
        """
        from ..viz.mesh import TriangleMesh

        flat = [p for payloads in payload_lists for p in payloads]
        meshes = [p for p in flat if isinstance(p, TriangleMesh)]
        if len(meshes) == len(flat):
            return TriangleMesh.merge(meshes)
        return flat


def split_round_robin(items: Sequence[Any], group_size: int) -> list[list[Any]]:
    """Deal items to workers in turn (the default static distribution)."""
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    shares: list[list[Any]] = [[] for _ in range(group_size)]
    for i, item in enumerate(items):
        shares[i % group_size].append(item)
    return shares


def lpt_order(weights: Sequence[float]) -> list[int]:
    """Indices sorted heaviest-first, ties broken by ascending index.

    The ordering primitive of both dynamic schedulers (DES and
    :mod:`repro.parallel`): expensive work starts first, and the
    explicit index tie-break makes the order deterministic for
    equal-cost items regardless of sort implementation details.
    """
    return sorted(range(len(weights)), key=lambda i: (-float(weights[i]), i))


#: How a command's work reaches its work group, on either clock:
#: ``"static"`` pre-deals one :meth:`Command.plan` share per worker,
#: ``"dynamic"`` lets workers drain :meth:`Command.plan_tasks` tasks in
#: LPT order (work stealing).  ``params["schedule"]`` may also carry a
#: command's private value (the progressive command's "level-major");
#: anything but ``"dynamic"`` runs static.
SCHEDULES = ("static", "dynamic")


def is_dynamic(schedule: Any) -> bool:
    return str(schedule) == "dynamic"


def plan_block_assignments(ctx: CommandContext, group_size: int) -> list[list[Any]]:
    """Standard block-work planning for per-block commands.

    Emits ``(time_index, block_id)`` pairs, time-major, dealt
    round-robin.  Cost-aware LPT balancing is ``schedule="dynamic"``,
    which drains :func:`plan_block_tasks` in :func:`lpt_order`.
    """
    work = [
        (t, h.block_id)
        for t in ctx.time_indices
        for h in ctx.handles_by_time[t - ctx.time_offset]
    ]
    return split_round_robin(work, group_size)


def plan_block_tasks(ctx: CommandContext) -> list[list[Any]]:
    """One dynamic-scheduling task per ``(time_index, block_id)``.

    Canonical order is time-major block order — exactly the order a
    single :func:`plan_block_assignments` share visits, so payloads
    reassembled in task order merge byte-identically to a serial run.
    """
    return [
        [(t, h.block_id)]
        for t in ctx.time_indices
        for h in ctx.handles_by_time[t - ctx.time_offset]
    ]


class CommandRegistry:
    """Name → command-class lookup (the extension point of layer 3)."""

    def __init__(self) -> None:
        self._commands: dict[str, type[Command]] = {}

    def register(self, cls: type[Command]) -> type[Command]:
        if not issubclass(cls, Command):
            raise TypeError(f"{cls!r} is not a Command subclass")
        if cls.name in self._commands:
            raise ValueError(f"command {cls.name!r} already registered")
        self._commands[cls.name] = cls
        return cls

    def create(self, name: str, **kwargs) -> Command:
        try:
            cls = self._commands[name]
        except KeyError:
            raise KeyError(
                f"unknown command {name!r}; available: {sorted(self._commands)}"
            ) from None
        return cls(**kwargs)

    def names(self) -> list[str]:
        return sorted(self._commands)

    def __contains__(self, name: str) -> bool:
        return name in self._commands
