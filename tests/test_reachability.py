"""Every ``src`` module is reached from what ships, and every name and
every field in it is read there.

What ships is declared once, in :data:`ROOTS`: the CLI, the command
registry, and every ``repro`` module a benchmark imports.  From there
the test follows import statements through the parsed source, imports
inside functions included, and fails naming each module the walk never
reaches.  A module that only tests or examples import is library
surface nothing ships: it is deleted, or it gains a shipped caller.

``from pkg import name`` resolves to the submodule that defines
``name`` by following ``pkg``'s ``__init__`` imports, so a package
re-export is not a use: an ``__init__``'s own imports count only for
the names its own code reads.  Nothing here imports ``repro``.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: What ships.  A dotted name is a root module (``.*``: a package and
#: every module in it); a path glob names scripts whose imports are roots.
ROOTS = ("repro.__main__", "repro.commands.*", "benchmarks/**/*.py")


def _parse_src() -> tuple[dict[str, ast.Module], set[str]]:
    """Every module under ``src/repro`` by dotted name, and the packages."""
    trees, packages = {}, set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        trees[".".join(parts)] = ast.parse(path.read_text(), str(path))
    return trees, packages


def _statements(body: list) -> Iterator[ast.AST]:
    """``body`` and every statement nested in it (imports are statements)."""
    for node in body:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            yield from _statements(getattr(node, field, ()))


def _imports(tree: ast.Module, package: str, top_level_only: bool = False):
    """``(bound name, module, imported name or None)`` per import."""
    nodes = tree.body if top_level_only else _statements(tree.body)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            base = ".".join(p for p in (base, node.module) if p)
            for alias in node.names:
                yield alias.asname or alias.name, base, alias.name


class _Graph:
    def __init__(self):
        self.trees, self.packages = _parse_src()
        self._bindings = {
            pkg: {
                bound: (module, name)
                for bound, module, name in _imports(self.trees[pkg], pkg, True)
            }
            for pkg in self.packages
        }

    def resolve(self, module: str, name: str | None) -> str:
        """The module that defines ``module.name`` (``module`` if ``None``)."""
        while name is not None:
            if f"{module}.{name}" in self.trees:
                return f"{module}.{name}"
            if name not in self._bindings.get(module, {}):
                break
            module, name = self._bindings[module][name]
        return module

    def edges(self, module: str) -> set[str]:
        tree = self.trees[module]
        is_pkg = module in self.packages
        package = module if is_pkg else module.rpartition(".")[0]
        # An __init__'s imports are re-exports unless its own code reads them.
        read = (
            {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} if is_pkg else ()
        )
        return {
            self.resolve(base, name)
            for bound, base, name in _imports(tree, package)
            if not is_pkg or bound in read
        } & self.trees.keys()

    def roots(self) -> set[str]:
        found = set()
        for root in ROOTS:
            if root.endswith(".py"):
                for path in ROOT.glob(root):
                    tree = ast.parse(path.read_text(), str(path))
                    found |= {self.resolve(m, n) for _, m, n in _imports(tree, "")}
            elif root.endswith(".*"):
                pkg = root[:-2]
                found |= {m for m in self.trees if m == pkg or m.startswith(pkg + ".")}
            else:
                found.add(root)
        return found & self.trees.keys()

    def reached(self) -> set[str]:
        seen, todo = set(), list(self.roots())
        while todo:
            module = todo.pop()
            if module in seen:
                continue
            seen.add(module)
            # Importing a module runs every enclosing package's __init__.
            parents = module.split(".")
            todo += [".".join(parents[:i]) for i in range(1, len(parents))]
            todo += self.edges(module)
        return seen


def test_every_src_module_is_reached_from_what_ships():
    graph = _Graph()
    assert "repro.__main__" in graph.trees and len(graph.roots()) > 20
    unreached = sorted(graph.trees.keys() - graph.reached())
    assert not unreached, (
        f"src modules nothing in {ROOTS} reaches (tests and examples do not "
        f"count): {unreached}"
    )


# --- names -----------------------------------------------------------------

#: Units no shipped code reads that stay, each with the reason it stays.
KEPT = {
    # Library surface: the one-call form of the four command families,
    # and what the examples print.
    "extract_isosurface": "one-call isosurface over a level (README, examples/)",
    "extract_vortices": "one-call λ2 vortex extraction over a level (README)",
    "extract_cutplane": "one-call cut plane over a level (examples/pressure_slices.py)",
    "trace_streakline": "one-call streakline over a time series (library surface)",
    "render_ascii": "examples/ print their geometry with it",
    "CommandResult.interaction_report": "examples/ print the paper's interaction criteria with it",
    "MultiBlockDataset.scalar_range": "examples/pressure_slices.py picks its slice values with it",
    # References that tests compare against.
    "StructuredBlock.cell_corner_points": "test_interpolate.py checks trilinear weights against it",
    "StructuredBlock.cell_corner_values": "tests/grids/scalar_locator.py and the cell-by-cell "
    "active-cell checks read corner values with it",
    "StructuredBlock.iter_cells": "the cell-by-cell active-cell checks walk cells with it",
    "TriangleMesh.drop_degenerate": "tests/algorithms/iso_reference.py drops zero-area "
    "triangles with it",
    "TriangleMesh.edge_statistics": "the iso kernel's watertightness tests count edges with it",
    "TriangleMesh.normals": "test_isosurface.py checks the sphere's orientation with it",
    "BatchPathlineTracer.reset_cache": "the pathline tests empty one tracer between runs with it",
    "geometry_from_bytes": "test_geometry_io.py reads the shipped wire format back with it",
    "block_from_bytes": "the format tests decode written blocks with it",
    "ABCFlowField": "the λ2 tests need a fully 3-D vortical analytic flow",
    # Observation points: private state no public call shows, which
    # tests read through these.
    "LazyStructuredBlock.resident_nbytes": "the lazy-block tests measure an upcast with "
    "it: which fields a block has materialised as float64 is private",
    "ProcessWorkerPool.arena_names": "the leak tests list the pool's shared-memory "
    "arenas with it: the segment names live only in the pool",
    # The chaos harness that tests/faults/test_golden_pins.py and the
    # chaos suite run; moving it into tests/ would not remove it.
    "run_chaos": "the chaos harness (golden pins, chaos suite)",
    "open_spans": "the chaos harness (golden pins, chaos suite)",
    "track_slos": "the chaos harness (golden pins, chaos suite)",
    "degraded_share_rate": "the chaos harness (golden pins, chaos suite)",
    "fault_free_runtime": "the chaos harness (golden pins, chaos suite)",
}

#: External base classes that call methods by a name they build at run
#: time (``do_GET`` from the request line), by the prefix they use.
CALLBACK_PREFIXES = {"http.server.BaseHTTPRequestHandler": "do_"}


def _reads(node: ast.AST) -> Counter:
    """How often each name is read in ``node``: ``Name`` ids and
    ``Attribute`` attrs."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    return found


def _external_bases(cls: ast.ClassDef, bound: dict) -> list[type]:
    """The classes from outside ``repro`` that ``cls`` names as bases."""
    found = []
    for base in cls.bases:
        module, name = bound.get(getattr(base, "id", None), ("repro", None))
        if name is not None and module.partition(".")[0] != "repro":
            found.append(getattr(importlib.import_module(module), name))
    return found


def _is_callback(name: str, bases: list[type]) -> bool:
    """An external base calls ``name``: it defines it, or dispatches to it."""
    for base in bases:
        prefix = CALLBACK_PREFIXES.get(f"{base.__module__}.{base.__qualname__}")
        if hasattr(base, name) or (prefix and name.startswith(prefix)):
            return True
    return False


def _units(graph: _Graph, module: str) -> Iterator[tuple[str, ast.AST]]:
    """``(qualified name, node)`` of each module-level function and class
    of ``module``, and each non-dunder method no external base calls."""
    tree = graph.trees[module]
    package = module if module in graph.packages else module.rpartition(".")[0]
    bound = {b: (m, n) for b, m, n in _imports(tree, package, True)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            bases = _external_bases(node, bound)
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and not _is_callback(item.name, bases)
                ):
                    yield f"{node.name}.{item.name}", item


def _shipped_trees(graph: _Graph) -> list[ast.AST]:
    """The parsed reached modules and benchmark scripts: what ships."""
    scripts = [p for root in ROOTS if root.endswith(".py") for p in ROOT.glob(root)]
    return [graph.trees[m] for m in sorted(graph.reached())] + [
        ast.parse(path.read_text(), str(path)) for path in scripts
    ]


def _shipped_readers() -> dict[str, bool]:
    """``{qualified name: whether shipped code reads it}`` per unit.

    A unit is read when its name is read anywhere in the reached
    modules or the benchmark scripts more often than inside the unit's
    own body.  Names match by spelling, so one read serves every unit
    so named.
    """
    graph = _Graph()
    reached = sorted(graph.reached())
    reads = sum(map(_reads, _shipped_trees(graph)), Counter())
    used: dict[str, bool] = {}
    for module in reached:
        for qualname, node in _units(graph, module):
            read = reads[node.name] > _reads(node)[node.name]
            used[qualname] = used.get(qualname, False) or read
    return used


def test_every_src_name_has_a_shipped_reader():
    used = _shipped_readers()
    assert len(used) > 500
    unread = sorted(name for name, read in used.items() if not read and name not in KEPT)
    assert not unread, (
        f"src functions, classes and methods nothing in {ROOTS} reads (tests "
        f"and examples do not count): {unread}; delete them, or keep one in "
        f"KEPT with the reason it stays"
    )
    stale = sorted(name for name in KEPT if used.get(name, True))
    assert not stale, f"KEPT names that are gone from src or now have a shipped reader: {stale}"


# --- state -----------------------------------------------------------------

#: State no shipped code reads that stays, each with the reason it stays.
_RETURNED = "a field of the record a public call returns"
KEPT_STATE = {
    "Streakline.n_released": f"{_RETURNED} (trace_streakline; the streakline tests)",
    "Streakline.observation_time": f"{_RETURNED} (trace_streakline)",
    "Streakline.release_times": f"{_RETURNED} (trace_streakline; the streakline tests)",
    "FaceMatch.block_a": f"{_RETURNED} (find_matched_faces; test_matched_faces.py)",
    "FaceMatch.face_a": f"{_RETURNED} (find_matched_faces; test_matched_faces.py)",
    "FaceMatch.block_b": f"{_RETURNED} (find_matched_faces; test_matched_faces.py)",
    "FaceMatch.face_b": f"{_RETURNED} (find_matched_faces; test_matched_faces.py)",
    "ChaosRun.injector": f"{_RETURNED} (run_chaos); the chaos suite reads the "
    "kinds that fired through it",
    "FaultInjector.injected": "the kinds that fired, for the chaos suite; a session "
    "without a metrics registry has no other record of them",
    "Observation.queue_wait": "SLODefinition.is_good reads it as "
    "getattr(observation, metric)",
    "Observation.ttfa": "SLODefinition.is_good reads it as getattr(observation, metric)",
    "SimMPIChannel.account": "passed on as account= to SimCluster.fabric_transfer, "
    "which charges the send to that Fig. 15 time bucket",
}

#: Calls that change the object they are called on.
MUTATORS = frozenset({"append", "extend", "add", "update", "setdefault", "discard", "clear"})


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        deco = deco.func if isinstance(deco, ast.Call) else deco
        if "dataclass" in (getattr(deco, "id", None), getattr(deco, "attr", None)):
            return True
    return False


def _state(tree: ast.Module) -> Iterator[tuple[str, str]]:
    """``(Class.attr, attr)`` per dataclass field (``ClassVar`` aside) and
    per ``self.<attr>`` a method of the class assigns."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        if _is_dataclass(cls):
            names |= {
                item.target.id
                for item in cls.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
            }
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names |= {
                    n.attr
                    for n in ast.walk(item)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and getattr(n.value, "id", None) == "self"
                }
        for name in sorted(names):
            yield f"{cls.name}.{name}", name


def _copies(node: ast.AST, attr: str) -> Iterator[ast.Attribute]:
    """The loads of ``.attr`` inside ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr == attr:
            yield n


def _writes(tree: ast.AST) -> set[int]:
    """``id``s of the attribute loads in ``tree`` that only write state:
    the receiver of a subscript store or a mutating call, and a load of
    ``.x`` copied into a same-named target (``a.x += b.x``,
    ``f(x=b.x)``, ``a.x.extend(b.x)``)."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            for target in n.targets if isinstance(n, (ast.Assign, ast.Delete)) else [n.target]:
                while isinstance(target, ast.Subscript):
                    target = target.value
                    found.add(id(target))
                if isinstance(target, ast.Attribute) and getattr(n, "value", None):
                    found |= {id(c) for c in _copies(n.value, target.attr)}
        elif isinstance(n, ast.Call):
            f = n.func
            if isinstance(f, ast.Attribute) and f.attr in MUTATORS:
                if isinstance(f.value, ast.Attribute):
                    found.add(id(f.value))
                    for arg in [*n.args, *(k.value for k in n.keywords)]:
                        found |= {id(c) for c in _copies(arg, f.value.attr)}
            for k in n.keywords:
                if k.arg:
                    found |= {id(c) for c in _copies(k.value, k.arg)}
    return found


def _state_reads(tree: ast.AST) -> Counter:
    """How often each attribute name is loaded in ``tree`` other than
    to write state (:func:`_writes`)."""
    writes = _writes(tree)
    return Counter(
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and id(n) not in writes
    )


def test_every_src_field_is_read_by_what_ships():
    graph = _Graph()
    reads = sum(map(_state_reads, _shipped_trees(graph)), Counter())
    state = {q: name for m in graph.reached() for q, name in _state(graph.trees[m])}
    assert len(state) > 500
    unread = sorted(q for q, name in state.items() if not reads[name] and q not in KEPT_STATE)
    assert not unread, (
        f"src fields and self attributes that only shipped code writes (tests "
        f"and examples do not count): {unread}; delete them with what fills "
        f"them, or keep one in KEPT_STATE with the reason it stays"
    )
    stale = sorted(q for q in KEPT_STATE if q not in state or reads[state[q]])
    assert not stale, f"KEPT_STATE entries gone from src or now read: {stale}"
