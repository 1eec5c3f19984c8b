"""The package's internal import graph has no cycles, one module owns the CSV format, every
public definition is used inside the package or re-exported by it, every cache is bounded
and lives inside one call, and importing the package loads numpy and scipy.special only."""

import ast
import importlib
import os
import subprocess
import sys
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


def _callee(expr: ast.AST) -> str | None:
    return expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)


def unbounded_caches(source: str) -> list[int]:
    """Line numbers of the functools caches in ``source`` that can grow without bound:
    ``cache`` (imported, called or used as a decorator) and ``lru_cache`` whose ``maxsize``
    is None or not an int literal.  A bare ``lru_cache`` keeps its default of 128."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bad += [d.lineno for d in node.decorator_list if _callee(d) == "cache"]
        elif isinstance(node, ast.Call) and _callee(node.func) == "cache":
            bad.append(node.lineno)
        elif isinstance(node, ast.Call) and _callee(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"] or node.args[:1]
            if size and not (isinstance(size[0], ast.Constant) and type(size[0].value) is int):
                bad.append(node.lineno)
    return sorted(bad)


def test_unbounded_caches_flags_cache_and_lru_cache_without_a_size():
    source = ("import functools\nfrom functools import cache, lru_cache\n\n"
              "@functools.cache\ndef a(x):\n    return x\n\n"
              "@lru_cache(maxsize=None)\ndef b(x):\n    return x\n\n"
              "@functools.lru_cache(4)\ndef c(x):\n    return x\n\n"
              "@lru_cache\ndef d(x):\n    return x\n\n"
              "def e(n):\n    f = functools.cache(abs)\n    g = functools.lru_cache(n)(abs)\n"
              "    return f, g\n")
    assert unbounded_caches(source) == [2, 4, 8, 21, 22]


def test_every_cache_in_the_package_is_bounded():
    found = {p.stem: unbounded_caches(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_no_cache_outlives_a_call():
    """A module-level cache would hold its entries, and hand the same arrays to every caller,
    for the life of the process; the package's caches live inside one call."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "scopesets" if path.stem == "__init__" else f"scopesets.{path.stem}"
        module = importlib.import_module(name)
        found = [attr for attr, obj in vars(module).items()
                 if hasattr(obj, "cache_parameters") and obj.__module__ == name]
        assert found == [], name


IMPORT_GUARD = """
import sys
import numpy as np
import scopesets, scopesets.cli
print(sorted(m for m in ("scipy.optimize", "scipy.spatial", "scipy.linalg", "scipy.sparse")
             if m in sys.modules))
from scopesets import Domain, IndexSet, Rng, hausdorff_distance, mc_oracle_quantile
dom = Domain(4, coords=[[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
print(repr(hausdorff_distance(IndexSet([0, 1]), IndexSet([2, 3]), dom)))
corr = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
print(repr(mc_oracle_quantile(corr, IndexSet([0, 1]), IndexSet([1, 2]), 0.1, 2000, Rng(7)).q))
"""


def test_import_leaves_optimize_spatial_linalg_and_sparse_unloaded():
    """A fresh ``import scopesets, scopesets.cli`` loads no scipy.optimize, spatial, linalg or
    sparse; the KD-tree Hausdorff distance and the Cholesky-root oracle load theirs on first
    use and return the values they returned when both were module-level imports."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", IMPORT_GUARD], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["[]", "3.605551275463989", "1.9170683154650543"]


def test_band_tests_read_touches_off_the_gap():
    """The band tests find each shifted edge's touch set on the gap of the target to the edge,
    where the shift d was read, and never move a threshold to find it: an edge b + d rounds, so
    the target could miss the edge it attains d at."""
    tree = ast.parse((PACKAGE / "hypotests.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_moved" not in imported | used
    assert "_gap" in imported and "_touched" in used


def call_sites(source: str, match) -> list[str]:
    """The dotted path of the function around each call in ``source`` that ``match`` accepts."""
    sites = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call) and match(child):
                sites.append(".".join(path))
            visit(child, path)

    visit(ast.parse(source), [])
    return sites


def _cuts_rows(call: ast.Call) -> bool:
    if not isinstance(call.func, ast.Name):
        return False
    stepped = call.func.id == "range" and len(call.args) == 3
    clipped = call.func.id == "min" and any(
        isinstance(a, ast.BinOp) and isinstance(a.op, ast.Sub) for a in call.args)
    return stepped or clipped


def chunk_cuts(source: str) -> list[str]:
    """The dotted path of the function around each row cut in ``source``: a stepped
    ``range(start, stop, step)`` or a ``min(rows, stop - start)``, the two halves of cutting
    rows into chunks by hand."""
    return call_sites(source, _cuts_rows)


def test_chunk_cuts_flags_stepped_ranges_and_min_cuts():
    source = ("def a(reps, rows):\n    return [min(rows, reps - s) for s in range(0, reps, rows)]\n"
              "\ndef b(n, k):\n    def inner():\n        return range(0, n, k)\n"
              "    return min(n, k), range(n), range(1, n), inner\n")
    assert chunk_cuts(source) == ["a", "a", "b.inner"]


def test_rows_are_cut_into_chunks_in_one_place():
    """Every Monte-Carlo loop takes its chunk sizes from ``quantile._chunk_sizes``, so chunk
    sizes, and with them the random streams, follow one rule.  The one other cut splits an
    oracle chunk into two half-chunk blocks, so that two workers hold one chunk's memory."""
    found = {f"{p.stem}.{path}" for p in sorted(PACKAGE.glob("*.py"))
             for path in chunk_cuts(p.read_text())}
    assert found == {"quantile._chunk_sizes", "quantile._gaussian_max_quantile.draw"}


def isinf_callers(source: str) -> list[str]:
    """The dotted path of the function around each ``isinf`` call in ``source``, by any name:
    ``np.isinf``, ``numpy.isinf`` or a bare imported ``isinf``."""
    return call_sites(source, lambda call: _callee(call.func) == "isinf")


def test_isinf_callers_finds_every_spelling():
    source = ("import numpy\nfrom numpy import isinf\n\nA = np.isinf(1.0)\n\n"
              "def f(w):\n    def g():\n        return numpy.isinf(w)\n"
              "    return isinf(w), np.isfinite(w), g\n")
    assert isinf_callers(source) == ["", "f.g", "f"]


def test_the_infinity_guard_has_one_home():
    """Every ``isinf`` call of the excursion module sits in ``widened_excursions``: it alone
    decides whether a margin needs the guard that keeps an infinite threshold fixed, so no
    other excursion path pays or repeats it."""
    assert set(isinf_callers((PACKAGE / "excursion.py").read_text())) == {"widened_excursions"}


def undeclared_recorded_facts(source: str) -> list[str]:
    """``Class.name`` for each ``object.__setattr__(self, name, ...)`` inside a class of
    ``source`` whose name is not a string literal naming an annotated field of that class, so
    every fact a frozen class records at construction shows in ``dataclasses.fields``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        declared = {node.target.id for node in cls.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
        for call in ast.walk(cls):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__setattr__" and _callee(call.func.value) == "object"):
                name = call.args[1] if len(call.args) > 1 else None
                if not (isinstance(name, ast.Constant) and name.value in declared):
                    found.append(f"{cls.name}.{getattr(name, 'value', '<computed>')}")
    return found


def test_undeclared_recorded_facts_flags_undeclared_and_computed_names():
    source = ("class A:\n    x: int\n    _y: float = field(init=False)\n\n"
              "    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)\n"
              "        object.__setattr__(self, '_y', 2.0)\n"
              "        object.__setattr__(self, '_z', 3.0)\n"
              "        for n in ('x',):\n            object.__setattr__(self, n, 0)\n\n"
              "class B:\n    def __init__(self):\n        object.__setattr__(self, 'x', 1)\n"
              "        setattr(self, 'w', 1)\n")
    assert undeclared_recorded_facts(source) == ["A._z", "A.<computed>", "B.x"]


def test_every_recorded_fact_is_a_declared_field():
    """A fact set with ``object.__setattr__`` but not declared would be missing from
    ``dataclasses.fields`` and would escape each field's repr/compare settings."""
    found = {p.stem: undeclared_recorded_facts(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {}
