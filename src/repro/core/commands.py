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

import math
import numbers
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
    "Param",
    "ParamError",
    "REQUIRED",
    "Deal",
    "command_context",
    "deal",
    "default_batch",
    "CommandRegistry",
    "split_round_robin",
    "plan_block_assignments",
    "plan_block_tasks",
    "lpt_order",
    "may_contain",
    "SCHEDULES",
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


def command_context(
    command: "Command | type[Command]",
    source: Any,
    levels: Sequence[int],
    params: Mapping[str, Any],
    costs: CostModel,
) -> CommandContext:
    """The context of one command on either clock: ``source`` (name,
    ``handles(t)``, ``times``) holds the contiguous absolute time indices
    ``levels``; the context carries ``params`` (as
    :meth:`Command.validate` returned them) resolved against
    ``command``'s defaults (:meth:`Command.resolve`), whose
    ``time_range`` picks the slice."""
    params = command.resolve(params, levels)
    t0, t1 = params["time_range"]
    return CommandContext(
        dataset=source.name,
        handles_by_time=[source.handles(t) for t in range(t0, t1)],
        params=params,
        costs=costs,
        time_offset=t0,
        times=list(source.times[t0:t1]),
    )


class ParamError(ValueError):
    """Params that their command's declaration does not accept; the
    message names the offending parameter."""


#: the default of a :class:`Param` the caller must give.
REQUIRED: Any = object()

#: How a command's work reaches its work group, on either clock:
#: ``"static"`` pre-deals one :meth:`Command.plan` share per worker,
#: ``"dynamic"`` lets workers drain :meth:`Command.plan_tasks` tasks in
#: LPT order (work stealing).  ``params["schedule"]`` is one of them.
SCHEDULES = ("static", "dynamic")

#: system prefetchers a ``prefetch`` param may name (§4.2).
PREFETCHERS = ("none", "obl", "on-miss", "markov", "markov+obl", "block-markov")


def _integer(value: Any) -> int | None:
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return int(value) if ok else None


def _finite(value: Any) -> float | None:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int beyond float range
        return None
    return value if math.isfinite(value) else None


def _vector(value: Any) -> tuple[float, ...] | None:
    """``value`` as three finite floats, or ``None`` when it is not."""
    try:
        items = [] if isinstance(value, (str, bytes)) else list(value)
    except TypeError:
        return None
    vec = tuple(_finite(x) for x in items)
    return vec if len(vec) == 3 and None not in vec else None


def _direction(vec: tuple[float, ...] | None) -> tuple[float, ...] | None:
    """A vector a kernel can normalise: its squared length neither
    underflows to zero nor overflows."""
    return vec if vec and 0.0 < sum(x * x for x in vec) < math.inf else None


def _is(kind: type) -> Callable[[Any], Any]:
    return lambda value: value if isinstance(value, kind) else None


#: per kind: what a value must be, and its canonical form (``None``
#: when it is not one).
_KINDS: dict[str, tuple[str, Callable[[Any], Any]]] = {
    "int": ("an integer", _integer),
    "float": ("a finite number", _finite),
    "time": ("a finite physical time", _finite),
    "bool": ("true or false", _is(bool)),
    "str": ("a string", _is(str)),
    "field": ("a field name", _is(str)),
    "fields": ("a list of field names", lambda v: tuple(v) if isinstance(
        v, (list, tuple)) and all(isinstance(x, str) for x in v) else None),
    "point": ("three finite numbers", _vector),
    "direction": ("three finite numbers whose squared length is a positive float",
                  lambda v: _direction(_vector(v))),
}


@dataclass(frozen=True)
class Param:
    """One declared command parameter.

    ``kind`` names one of :data:`_KINDS`, or is ``"points"`` (N >= 1
    points), ``"time_range"`` (two integers ``t0 < t1`` inside the
    data's levels; ``None`` is every level) or a class, whose instances
    pass through by reference.  A ``None`` default also admits ``None``.
    Where the data is known, a ``field``/``fields`` value must name
    fields it holds, with ``components`` components where that is set,
    and a ``time`` must lie within the physical times of the levels
    ``time_range`` picks, after the ``time`` named by ``after`` where
    that is set (:meth:`Command.validate`).
    """

    name: str
    kind: Any
    default: Any = REQUIRED
    #: the least ``int``/``float`` value, or the fewest levels a
    #: ``time_range`` spans.
    low: float | None = None
    #: the legal values of a ``str``.
    choices: tuple[str, ...] = ()
    #: the component count a ``field``/``fields`` value must have (1: a
    #: scalar); ``None`` takes any.
    components: int | None = None
    #: the ``time`` this one must exceed.  A ``None`` value of this one
    #: is the last level's time, of that one the first level's.
    after: str | None = None

    @property
    def shape(self) -> str:
        """What ``components`` asks of a field: ``"scalar"``, ``"3-component"``."""
        return "scalar" if self.components == 1 else f"{self.components}-component"

    def describe(self) -> str:
        """``name: type, default`` and the legal values where bounded:
        how ``repro commands`` and the API docs state the parameter."""
        kind = self.kind if isinstance(self.kind, str) else self.kind.__name__
        if self.components is not None:
            kind = f"{self.shape} {kind}"
        text = f"{self.name}: {kind}, " + (
            "required" if self.default is REQUIRED else f"default {self.default!r}"
        )
        if self.after is not None:
            text += f", after {self.after}"
        if self.choices:
            return f"{text}, one of {'/'.join(self.choices)}"
        if self.low is None:
            return text
        return f"{text}, {'levels ' if kind == 'time_range' else ''}>= {self.low}"

    def normalise(self, value: Any, levels: Sequence[int]) -> Any:
        """``value`` in its canonical form, or :class:`ParamError`."""
        name, kind, low = self.name, self.kind, self.low
        if kind == "time_range":
            return self._time_range(value, levels)
        if value is None and self.default is None:
            return None
        if kind == "points":
            return self._points(value)
        if not isinstance(kind, str):
            what, got = f"a {kind.__name__}", _is(kind)(value)
        else:
            what, got = _KINDS[kind]
            got = got(value)
            if low is not None:
                what += f" >= {low}"
                got = None if got is None or got < low else got
            if self.choices:
                what = f"one of {self.choices}"
                got = got if got in self.choices else None
        if got is None:
            raise ParamError(f"{name} must be {what}, got {value!r}")
        return got

    def _points(self, value: Any) -> tuple[tuple[float, ...], ...]:
        name = self.name
        if isinstance(value, (str, bytes, Mapping)) or not hasattr(value, "__iter__"):
            raise ParamError(f"{name} must be a list of [x, y, z] points, got {value!r}")
        points = []
        for index, item in enumerate(value):
            vec = _vector(item)
            if vec is None:
                raise ParamError(
                    f"{name}: seed {index} must be three finite numbers, got {item!r}"
                )
            points.append(vec)
        if not points:
            raise ParamError(f"{name} must hold at least one seed")
        return tuple(points)

    def _time_range(self, value: Any, levels: Sequence[int]) -> tuple[int, int]:
        name = self.name
        if not levels:
            raise ParamError("the data holds no time levels")
        lo, hi = levels[0], levels[-1] + 1
        if value is None:
            value = (lo, hi)
        span = int(self.low or 1)
        t0, t1 = (
            map(_integer, value)
            if isinstance(value, (list, tuple)) and len(value) == 2 else (None, None)
        )
        if t0 is not None and t1 is not None and lo <= t0 and t0 + span <= t1 <= hi:
            return t0, t1
        spans = f", spanning at least {span} levels" if span > 1 else ""
        raise ParamError(
            f"{name} must be two integers (t0, t1) with {lo} <= t0 < t1 <= {hi}"
            f"{spans}, got {value!r}"
        )


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
    #: the system prefetcher (one of ``PREFETCHERS``) installed for this
    #: command unless ``params["prefetch"]`` names another (the
    #: ablation figures switch prefetching off).
    prefetcher: str = "none"
    #: this command's own parameters; a subclass inherits its parent's
    #: unless it declares its own.
    parameters: tuple[Param, ...] = ()

    @classmethod
    def declaration(cls) -> dict[str, Param]:
        """Every parameter the command takes, by name: those all
        commands share, then :attr:`parameters` (which may restate a
        shared one)."""
        shared = (
            Param("time_range", "time_range", None),
            Param("schedule", "str", "static", choices=SCHEDULES),
            Param("steal_batch", "int", None, low=1),
            Param("prefetch", "str", cls.prefetcher, choices=PREFETCHERS),
            Param("prefetch_width", "int", 1, low=1),
            Param("retain_markov", "bool", False),
            Param("progress", "bool", False),
        )
        return {p.name: p for p in shared + cls.parameters}

    @classmethod
    def validate(
        cls,
        params: Mapping[str, Any] | None,
        levels: Sequence[int],
        fields: Mapping[str, int] | None = None,
        times: Sequence[float] | None = None,
    ) -> dict[str, Any]:
        """The caller's ``params``, each in its canonical form, over data
        holding the time indices ``levels``; :class:`ParamError` names
        an unknown, missing or malformed one.

        Given the data's ``fields`` (each field's component count, by
        name) and ``times`` (the physical time of each level index), a
        field parameter naming a field the data lacks or one of the
        wrong component count, a physical time outside the levels the
        params pick, or one not after the time it must follow, is
        refused too."""
        params = params or {}
        declared = cls.declaration()
        for key in params:
            if key not in declared:
                raise ParamError(
                    f"unknown parameter {key!r} for {cls.name!r}; "
                    f"it takes {sorted(declared)}"
                )
        for p in declared.values():
            if p.default is REQUIRED and p.name not in params:
                raise ParamError(f"{p.name} is required by {cls.name!r}")
        valid = {key: declared[key].normalise(value, levels) for key, value in params.items()}
        t0, t1 = valid.get("time_range") or declared["time_range"].normalise(None, levels)
        for p in declared.values():
            value = valid.get(p.name, p.default)
            if fields is not None and p.kind in ("field", "fields") and value is not None:
                for name in (value,) if p.kind == "field" else value:
                    if name not in fields:
                        raise ParamError(
                            f"{p.name}: the data has no field {name!r}; "
                            f"it holds {sorted(fields)}"
                        )
                    if p.components not in (None, fields[name]):
                        raise ParamError(
                            f"{p.name} must name a {p.shape} field; "
                            f"{name!r} has {fields[name]} component(s)"
                        )
            if times is not None and p.kind == "time":
                lo, hi = times[t0], times[t1 - 1]
                if value is not None and not lo <= value <= hi:
                    raise ParamError(
                        f"{p.name} must lie within the data's times "
                        f"[{lo}, {hi}], got {value!r}"
                    )
                if p.after is not None:
                    end = hi if value is None else value
                    start = valid.get(p.after)
                    start = lo if start is None else start
                    if start >= end:
                        raise ParamError(
                            f"{p.after} must come before {p.name} ({end}), "
                            f"got {start}"
                        )
        return valid

    @classmethod
    def resolve(cls, params: Mapping[str, Any] | None, levels: Sequence[int]) -> dict[str, Any]:
        """What a context carries: every declared default, overridden by
        ``params`` that :meth:`validate` returned; a ``None``
        ``time_range`` becomes every level in ``levels``."""
        declared = cls.declaration()
        resolved = {p.name: p.default for p in declared.values() if p.default is not REQUIRED}
        resolved.update(params or {})
        if resolved["time_range"] is None:
            resolved["time_range"] = declared["time_range"].normalise(None, levels)
        return resolved

    def plan(self, ctx: CommandContext, group_size: int) -> list[Any]:
        """Split the work into one assignment per worker."""
        raise NotImplementedError

    def run(self, ctx: CommandContext, assignment: Any, worker_index: int) -> CommandGen:
        """The worker-side op generator for one assignment."""
        raise NotImplementedError

    def cull_on(self, ctx: CommandContext) -> tuple[str, float] | None:
        """``(scalar, value)`` when a block contributes only if its
        stored ``scalar`` range reaches ``value``: the real path then
        deals no ``(level, block)`` pair whose range excludes it
        (:func:`may_contain`).  ``None`` for commands that never skip a
        block; one that names a pair plans units of such pairs."""
        return None

    def derived_field(self, ctx: CommandContext) -> str | None:
        """The derived field :meth:`run` reads (``"lambda2"``), or
        ``None``.  Executors over a shared store derive it once per
        block before running (and persist it beside an on-disk
        dataset), so :meth:`run` finds it stored and :meth:`cull_on`
        can name it."""
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

    The claim order of a dynamic :func:`deal`: expensive work starts
    first, and the explicit index tie-break makes the order
    deterministic for equal-cost items regardless of sort
    implementation details.
    """
    return sorted(range(len(weights)), key=lambda i: (-float(weights[i]), i))


def default_batch(n_units: int, group: int) -> int:
    """Units per ticket unless ``params["steal_batch"]`` says: few enough
    that the run's tail still balances, enough that the shared ticket
    sequence is touched O(slots) times, not O(units)."""
    return max(1, n_units // (max(group, 1) * 8))


@dataclass(frozen=True)
class Deal:
    """One decomposition of a command's work over ``group`` slots,
    whatever executes them: DES workers, in-process slots or pool
    processes."""

    #: :meth:`Command.plan` shares (static) or :meth:`Command.plan_tasks`
    #: tasks (dynamic), in canonical order: the merge order.
    units: list[Any]
    #: live unit indices in claim order; ``None`` when slot *i* runs unit *i*.
    order: list[int] | None
    batch: int  #: units per ticket
    fair_share: int  #: ``ceil(live units / group)``; beyond it a slot steals
    group: int
    #: units no slot runs (they merge as empty payload lists): those the
    #: prune emptied, or every share when it left no pair to deal.
    dead: frozenset[int] = frozenset()
    #: the ``(level, block)`` pairs the prune dropped.
    culled: tuple[tuple[int, int], ...] = ()

    def slots(self) -> list[int]:
        """The slots that run: pre-dealt, each whose share is not dead;
        a drain, all ``group`` unless the prune left nothing to deal."""
        if self.order is None:
            return [i for i in range(self.group) if i not in self.dead]
        return [] if self.dead and not self.order else list(range(self.group))

    def tickets(self) -> list[list[int]]:
        """``order`` cut into ``batch``-unit tickets (static: ``[[i]]``)."""
        if self.order is None:
            return [[i] for i in range(len(self.units))]
        step = self.batch
        return [self.order[i:i + step] for i in range(0, len(self.order), step)]


def deal(
    command: Command,
    ctx: CommandContext,
    group: int,
    weights: Callable[[list[Any]], Sequence[float]] | None = None,
    live: Callable[[int, int], bool] | None = None,
) -> Deal:
    """Static deals one share per slot.  Dynamic (``params["schedule"]
    == "dynamic"``) deals tasks heaviest-first by ``weights(units)``
    (default :meth:`Command.task_cost`), ``params["steal_batch"]`` per
    ticket (default :func:`default_batch`).

    ``live(t, b)`` (the real path's prune, :func:`may_contain`; the DES
    passes none) drops every ``(level, block)`` pair it refuses from
    the units first, in order; the claim order, batch and fair share
    then count live units only."""
    if group < 1:
        raise ValueError(f"group_size must be >= 1, got {group}")
    dynamic = ctx.params["schedule"] == "dynamic"
    units = command.plan_tasks(ctx) if dynamic else command.plan(ctx, group)
    if not dynamic and len(units) != group:
        raise RuntimeError(
            f"command {command.name!r} planned {len(units)} assignments "
            f"for group of {group}"
        )
    dead, culled = set(), []
    if live is not None:
        pruned = []
        for index, unit in enumerate(units):
            kept = []
            for pair in unit:
                (kept if live(*pair) else culled).append(pair)
            if unit and not kept:
                dead.add(index)
            pruned.append(kept)
        units = pruned
    if not dynamic:
        # A share the prune emptied runs nowhere; none runs when no pair
        # is left, not even a command's own empty share.
        if culled and not any(units):
            dead = set(range(group))
        return Deal(units, None, 1, 1, group, frozenset(dead), tuple(culled))
    costs = weights(units) if weights else [command.task_cost(ctx, u) for u in units]
    order = [i for i in lpt_order(costs) if i not in dead]
    batch = ctx.params["steal_batch"] or default_batch(len(order), group)
    return Deal(
        units, order, batch, math.ceil(len(order) / group), group,
        frozenset(dead), tuple(culled),
    )


def may_contain(
    ranges: Mapping[int, Mapping[int, tuple[float, float]]], value: float
) -> Callable[[int, int], bool]:
    """The prune's test: whether block ``(t, b)``, by one scalar's stored
    ``{t: {b: (lo, hi)}}``, can reach ``value``.  ``True`` where nothing
    is known (no entry: unknown, or not finite); a ``False`` is exact —
    no cell can hold ``value`` — so undealt, the block changes no byte."""

    def live(time_index: int, block_id: int) -> bool:
        span = ranges.get(time_index, {}).get(block_id)
        return span is None or span[0] <= value <= span[1]

    return live


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

    def command_class(self, name: str) -> type[Command]:
        try:
            return self._commands[name]
        except KeyError:
            raise KeyError(
                f"unknown command {name!r}; available: {sorted(self._commands)}"
            ) from None

    def create(self, name: str, **kwargs) -> Command:
        return self.command_class(name)(**kwargs)

    def names(self) -> list[str]:
        return sorted(self._commands)

    def __contains__(self, name: str) -> bool:
        return name in self._commands
