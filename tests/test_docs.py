"""The docs name code that exists.

Every backticked ``repro.*`` dotted name in README.md, DESIGN.md and
docs/*.md must resolve by import plus ``getattr``, and every backticked
repo path under src/, tests/, benchmarks/, examples/ or docs/ must exist
(globs must match something), so deleting or renaming code cannot leave
a dangling reference behind.  Every backticked test node id
(``file.py::test_name``, ``*`` globs allowed in the name) must name a
test function in that file: a path under tests/, or a bare file name
unique under tests/.  Every ``repro <verb> --flag`` quoted in
them, in EXPERIMENTS.md (inline code or a fenced block) or in the CI
workflow must name a verb with a ``USAGE`` entry that lists the flag,
and every quoted command line that is not a usage template or a bare
verb must parse by that entry: a bad command line exits 2, so a stale
one is a broken recipe.
"""

import ast
import importlib
import re
import shlex
from fnmatch import fnmatchcase
from pathlib import Path

from repro.__main__ import USAGE, _parse, _Usage

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
#: where quoted command lines are checked: the docs, the paper record
#: and the CI workflow (every line of which is code).
RECIPES = [*DOCS, ROOT / "EXPERIMENTS.md", ROOT / ".github" / "workflows" / "ci.yml"]

_NAME = re.compile(r"(?<![\w./-])(repro(?:\.\w+)+)")
_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples|docs)/[^\s`:(),]*)"
)

_NODE_ID = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.py)::([\w*]+)")


def _backticked(pattern: re.Pattern) -> dict[str, str]:
    """Every match inside a backtick span, mapped to the doc naming it."""
    found: dict[str, str] = {}
    for doc in DOCS:
        for span in re.findall(r"`([^`\n]+)`", doc.read_text()):
            for match in pattern.findall(span):
                found.setdefault(match, doc.name)
    return found


#: a verb and what follows it, up to a comment, a shell separator, a
#: pipe or redirection, or the next quoted command.
_COMMAND = re.compile(r"\brepro ([a-z][\w-]*)((?:(?!\brepro |\s[|>])[^#;&])*)")


def _quoted_commands(text: str, all_code: bool = False) -> list[tuple[str, str]]:
    """``(verb, rest)`` of every ``repro <verb>`` in a code span or block,
    or on any line when ``all_code``."""
    if all_code:
        return [m.groups() for line in text.splitlines() for m in _COMMAND.finditer(line)]
    parts = re.split(r"^```.*$", text, flags=re.M)
    code = [line for block in parts[1::2] for line in block.splitlines()]
    for prose in parts[0::2]:
        code += [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]
    return [m.groups() for chunk in code for m in _COMMAND.finditer(chunk)]


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


def _test_file(cited: str) -> Path | None:
    """The one file under tests/ a cited ``file.py`` denotes, or ``None``."""
    if "/" in cited:
        path = ROOT / cited
        return path if cited.startswith("tests/") and path.is_file() else None
    matches = list((ROOT / "tests").rglob(cited))
    return matches[0] if len(matches) == 1 else None


def test_every_cited_test_exists():
    cited = _backticked(_NODE_ID)
    assert len(cited) > 5, "the scan found too few test ids to mean anything"
    missing = {}
    for (file, name), doc in cited.items():
        path = _test_file(file)
        defined = [] if path is None else [
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if not any(fnmatchcase(d, name) for d in defined):
            missing[f"{file}::{name}"] = doc
    assert not missing, f"docs cite tests that do not exist: {missing}"


def _recipes() -> list[tuple[str, str, str]]:
    """``(doc, verb, rest)`` of every quoted command in :data:`RECIPES`."""
    return [
        (doc.name, verb, rest.strip())
        for doc in RECIPES
        for verb, rest in _quoted_commands(doc.read_text(), doc.suffix == ".yml")
    ]


def test_every_quoted_cli_flag_is_accepted():
    quoted = {
        (verb, flag, doc)
        for doc, verb, rest in _recipes()
        for flag in re.findall(r"--([\w-]+)", rest)
    }
    assert len(quoted) > 15, "the scan found too few flags to mean anything"
    stale = sorted(
        (doc, f"repro {verb} --{flag}")
        for verb, flag, doc in quoted
        if flag not in re.findall(r"\[--([\w-]+)", USAGE.get(verb, ""))
    )
    assert not stale, f"docs quote flags their verb does not accept: {stale}"


def test_every_quoted_command_line_parses():
    lines = [
        (doc, verb, rest)
        for doc, verb, rest in _recipes()
        if verb in USAGE and rest and not re.search(r"[<\[]", rest)
    ]
    assert len(lines) > 20, "the scan found too few command lines to mean anything"
    bad = []
    for doc, verb, rest in lines:
        try:
            _parse(verb, shlex.split(rest))
        except _Usage as exc:
            bad.append((doc, f"repro {verb} {rest}", str(exc)))
    assert not bad, f"docs quote command lines their verb rejects: {bad}"


def _params_table() -> str:
    """docs/API.md's params table as the declarations state it: the
    parameters every command shares, then per command those it adds or
    declares differently."""
    from repro.commands import default_registry
    from repro.core.commands import Command

    shared = [p.describe() for p in Command.declaration().values()]
    rows = [
        "| command | parameters |",
        "|---|---|",
        f"| every command | {'; '.join(shared)} |",
    ]
    registry = default_registry()
    for name in registry.names():
        own = [
            text
            for p in registry.command_class(name).declaration().values()
            if (text := p.describe()) not in shared
        ]
        rows.append(f"| `{name}` | {'; '.join(own)} |")
    return "\n".join(rows)


def test_api_params_table_states_the_declarations():
    table = _params_table()
    assert table in (ROOT / "docs" / "API.md").read_text(), (
        "docs/API.md's params table differs from the commands' "
        f"declarations; it should read:\n{table}"
    )


def _expand(name: str) -> list[str]:
    """``a_{b,c}_d`` → ``[a_b_d, a_c_d]``, every brace group in turn."""
    match = re.search(r"\{([^{}]*)\}", name)
    if match is None:
        return [name]
    head, tail = name[: match.start()], name[match.end() :]
    return [x for alt in match.group(1).split(",") for x in _expand(head + alt + tail)]


def test_api_names_the_published_series():
    from repro.commands import DEMO_PARAMS

    from tests.conftest import paper_session

    text = (ROOT / "docs" / "API.md").read_text()
    listed = text.split("Series published by the stack:", 1)[1].split("\n\n", 1)[0]
    names = {
        name
        for code in re.findall(r"`([^`]+)`", listed.replace("\n", ""))
        if code.startswith("viracocha_")
        for name in _expand(code)
    }
    assert len(names) > 20
    session = paper_session(n_workers=2)
    published = set()
    for command in ("iso-dataman", "iso-progressive"):
        published |= set(session.run(command, params=dict(DEMO_PARAMS[command])).metrics)
    assert not names - published, (
        f"docs/API.md lists series the stack does not publish: {sorted(names - published)}"
    )
    # The span ring's two series are listed with the exporters.
    ring = {"viracocha_spans_dropped_total", "viracocha_span_ring_high_water"}
    unlisted = published - names - ring
    assert not unlisted, f"docs/API.md omits series the stack publishes: {sorted(unlisted)}"
