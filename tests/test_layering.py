"""The package's internal import graph has no cycles, and one module owns the CSV format."""

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
