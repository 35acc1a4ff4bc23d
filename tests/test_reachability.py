"""Every ``src`` module is reached from what ships.

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
