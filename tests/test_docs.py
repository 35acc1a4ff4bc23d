"""The docs name code that exists.

Every backticked ``repro.*`` dotted name in README.md, DESIGN.md and
docs/*.md must resolve by import plus ``getattr``, and every backticked
repo path under src/, tests/, benchmarks/, examples/ or docs/ must exist
(globs must match something), so deleting or renaming code cannot leave
a dangling reference behind.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

_NAME = re.compile(r"(?<![\w./-])(repro(?:\.\w+)+)")
_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples|docs)/[^\s`:(),]*)"
)


def _backticked(pattern: re.Pattern) -> dict[str, str]:
    """Every match inside a backtick span, mapped to the doc naming it."""
    found: dict[str, str] = {}
    for doc in DOCS:
        for span in re.findall(r"`([^`\n]+)`", doc.read_text()):
            for match in pattern.findall(span):
                found.setdefault(match, doc.name)
    return found


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_named_symbol_resolves():
    names = _backticked(_NAME)
    assert len(names) > 40, "the scan found too few names to mean anything"
    missing = {n: doc for n, doc in names.items() if not _resolves(n)}
    assert not missing, f"docs name symbols that do not exist: {missing}"


def test_every_named_path_exists():
    paths = _backticked(_PATH)
    assert len(paths) > 40, "the scan found too few paths to mean anything"
    missing = {p: doc for p, doc in paths.items() if not list(ROOT.glob(p))}
    assert not missing, f"docs name paths that do not exist: {missing}"
