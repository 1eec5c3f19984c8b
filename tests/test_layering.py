"""The package's internal import graph has no cycles, one module owns the CSV format, and every
public definition is used inside the package or re-exported by it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scopesets"


def relative_imports(path: Path) -> set[str]:
    """Sibling modules imported by ``path``, including imports inside functions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def import_graph() -> dict[str, set[str]]:
    return {p.stem: relative_imports(p) for p in sorted(PACKAGE.glob("*.py"))}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    state = {}  # absent: unvisited, 1: on the current path, 2: done

    def visit(node, path):
        state[node] = 1
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = 2
        return None

    for node in graph:
        if node not in state:
            cycle = visit(node, [node])
            if cycle:
                return cycle
    return None


def test_graph_covers_the_package():
    graph = import_graph()
    assert {"excursion", "quantile", "hypotests", "cli"} <= set(graph)
    assert "excursion" in graph["quantile"]


def test_find_cycle_reports_a_deferred_import_cycle():
    assert find_cycle({"a": {"b"}, "b": {"a"}, "c": set()}) == ["a", "b", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_package_imports_are_acyclic():
    cycle = find_cycle(import_graph())
    assert cycle is None, " -> ".join(cycle)


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in ``path``, including those inside functions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_csvio_imports_only_errors():
    assert relative_imports(PACKAGE / "csvio.py") == {"errors"}


def test_only_csvio_imports_csv():
    users = sorted(p.stem for p in PACKAGE.glob("*.py") if "csv" in imported_modules(p))
    assert users == ["csvio"]


def referenced_names(node: ast.AST) -> set[str]:
    """Names, attribute names and imported aliases anywhere under ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def orphaned_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level public ``def`` or ``class`` in ``sources`` (module
    stem -> source text) that no other top-level statement of any module references and
    ``__init__`` does not re-export; calls inside function bodies count as references."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    exported = referenced_names(trees.pop("__init__")) if "__init__" in trees else set()
    refs = [(top, referenced_names(top)) for tree in trees.values() for top in tree.body]
    orphans = []
    for stem, tree in trees.items():
        for top in tree.body:
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
                    and top.name not in exported
                    and not any(top.name in names for other, names in refs if other is not top)):
                orphans.append(f"{stem}.{top.name}")
    return sorted(orphans)


def test_orphaned_public_names_flags_only_unreferenced_definitions():
    sources = {
        "__init__": "from .a import Kept\n",
        "a": "class Kept:\n    pass\n\ndef helper():\n    pass\n\ndef orphan():\n    helper()\n"
             "\ndef _private():\n    pass\n",
        "b": "from . import a\n\ndef caller():\n    return a.orphan\n",
    }
    assert orphaned_public_names(sources) == ["b.caller"]
    del sources["b"]
    assert orphaned_public_names(sources) == ["a.orphan"]


def test_every_public_name_is_used_in_the_package_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_public_names(sources) == []
